import numpy as np
import pytest

from mdid.fixtures import load
from mdid.gfile import parse_graph_file
from mdid.fixing import validate_schedule
from mdid.graph import Cadmg
from mdid import kernel as K
from mdid.fixing import FixingSchedule
from mdid.missing import (AssemblyError, ancestral_precondition,
                          ancestral_schedule,
                          assemble_full_law, assemble_target_law,
                          colluder_scan, without_censored_rows)
from mdid.model import ModelError, Triple, md_dag, validate_md_dag
from mdid import oracle as O

from conftest import random_mddag


def test_validate_md_dag_examples():
    assert load("block_sequential")                       # parses and validates
    with pytest.raises(ModelError, match="descendants"):
        md_dag([("R1", "X2(1)")], ["X1", "X2"])
    # proxy with a missing indicator parent
    g = Cadmg(["X1(1)", "R1", "X1"], [("X1(1)", "X1")])
    with pytest.raises(ModelError, match="parents"):
        validate_md_dag(g, [Triple("X1(1)", "R1", "X1")], [])
    with pytest.raises(ModelError, match="no children"):
        md_dag([("X1", "R2")], ["X1", "X2"])


def test_triple_naming_rule_shared_by_builder_and_parser():
    built = md_dag([], ["X1", "Y"])
    parsed = parse_graph_file("var X1 missing\nvar Y missing\n")
    assert built.triples == parsed.triples == (
        Triple("X1(1)", "R1", "X1"), Triple("Y(1)", "R_Y", "Y"))
    assert built.triple_of("R_Y") == Triple("Y(1)", "R_Y", "Y")
    assert built.triple_of("X1(1)") == Triple("X1(1)", "R1", "X1")
    with pytest.raises(ModelError, match="no censored-variable triple"):
        built.triple_of("Z")
    # role sets are computed once per model
    assert built.truths is built.truths
    assert built.observed_columns == {"R1", "X1", "R_Y", "Y"}


def test_colluder_scan_examples():
    assert colluder_scan(load("colluder_pair")) == [("R2", "R1")]
    assert colluder_scan(load("staggered_trio")) == []    # R3->R2 but X3(1) not a parent
    assert colluder_scan(md_dag([], ["X1", "X2"])) == []


def test_ancestral_precondition_and_schedules():
    # indicators depending only on other censored variables, no indicator
    # edges: the precondition holds and schedules are empty chains
    md = load("crisscross")
    assert ancestral_precondition(md)
    for r in md.sorted_indicators():
        s = ancestral_schedule(md, r)
        assert s.classes == (frozenset({r}),)
        ok, viol, _plan = validate_schedule(md, s)
        assert ok, viol

    # an indicator chain into censored parents breaks it
    assert not ancestral_precondition(load("block_sequential"))
    # self-censoring breaks it reflexively
    bad = md_dag([("X1(1)", "R1")], ["X1"])
    assert not ancestral_precondition(bad)


def test_ancestral_schedule_depth():
    rng = np.random.default_rng(8)
    found = 0
    for _ in range(300):
        md = random_mddag(rng, int(rng.integers(2, 5)))
        if not ancestral_precondition(md):
            continue
        found += 1
        for r in md.sorted_indicators():
            s = ancestral_schedule(md, r)
            members = set().union(*s.classes) if s.classes else set()
            assert members == set(md.graph.descendants([r]) & md.indicators)
            ok, viol, _plan = validate_schedule(md, s)
            assert ok, (viol, r)
        if found >= 25:
            break
    assert found >= 25


def test_assemble_target_law_requires_all_propensities():
    md = load("crisscross")
    with pytest.raises(AssemblyError):
        assemble_target_law(md, {})


def test_assemble_target_no_missingness_degenerate():
    # zero indicators cannot be represented; the nearest degenerate case is
    # indicators without parents (completely random censoring)
    md = md_dag([], ["X1"])
    from mdid.identify import identify_target
    rep = identify_target(md)
    assert rep.status == "identified"
    assert rep.propensities["R1"] == K.Atom("p", ("R1",))
    rep2 = O.verify_target_functional(md, rep.functional, trials=20, seed=3)
    assert rep2.max_error <= 1e-9


def test_full_law_obstruction_reporting():
    md = load("colluder_pair")
    from mdid.identify import identify_target
    rep = identify_target(md)
    with pytest.raises(AssemblyError, match="value 1"):
        assemble_full_law(md, rep.propensities)


def test_full_law_obstruction_names_a_proxy_read_without_its_indicator():
    # p(R1 | X2) reads the proxy X2 where R2 is not pinned to 1, so it
    # cannot enter the full-law product; its censored variable is the culprit
    from mdid.fixing import Violation
    from mdid.identify import identify_full
    from mdid.missing import full_law_obstructions
    md = load("crisscross")
    q = K.Atom("p", ("R1",), ("X2",))
    detail = "R1: conditions on proxy X2 without R2=1"
    assert full_law_obstructions(md, "R1", q) == Violation("full", None, detail, ("X2(1)",))
    propensities = {**identify_full(md).propensities, "R1": q}
    with pytest.raises(AssemblyError) as raised:
        assemble_full_law(md, propensities)
    assert str(raised.value) == detail


def test_full_law_mcar_trivial():
    md = md_dag([], ["X1", "X2"])
    from mdid.identify import identify_full
    rep = identify_full(md)
    assert rep.status == "identified"
    chk = O.verify_full_functional(md, rep.functional, trials=30, seed=11)
    assert chk.max_error <= 1e-9


@pytest.mark.parametrize("name", ["crisscross", "staggered_trio"])
@pytest.mark.parametrize("cardinality", [2, 3])
def test_full_law_is_one_evaluation_of_the_term_by_term_product(name, cardinality,
                                                                 monkeypatch):
    # the numerator times each propensity over its value at R = 1, in the
    # order of the indicators, each term evaluated and joined on its own
    from mdid.identify import identify_full
    md = load(name)
    functional = identify_full(md).functional
    obs = O.derive_observed_law(md, O.sample_full_law(md, cardinality, 5))
    want = without_censored_rows(obs, K.evaluate_numeric(functional.numerator, obs))
    for _, q in sorted(functional.propensities.items()):
        tab = without_censored_rows(obs, K.evaluate_numeric(q, obs))
        at_one = tab.take({r: 1 for r in md.indicators if r in tab.dims})
        want = K.NamedTable.join(K.NamedTable.join(want, tab, np.multiply), at_one, np.divide)
    want = K.rename_axes(want, {t.proxy: t.truth for t in md.triples})
    calls = []
    evaluate = K.evaluate_numeric
    monkeypatch.setattr(K, "evaluate_numeric", lambda e, law: calls.append(e) or evaluate(e, law))
    got = functional.evaluate(obs)
    assert len(calls) == 1
    assert got.dims == want.dims and got.domains == want.domains
    assert np.allclose(got.data, want.data, rtol=0, atol=1e-12, equal_nan=True)


def test_target_assembly_matches_oracle_on_fixtures():
    from mdid.identify import identify_target
    for name in ("crisscross", "latent_trio", "joint_quartet"):
        md = load(name)
        rep = identify_target(md)
        assert rep.status == "identified"
        chk = O.verify_target_functional(md, rep.functional, trials=25, seed=19)
        assert chk.max_error <= 1e-9, name


def test_always_observed_indicators_make_proxies_exact():
    # degenerate law with both indicators almost surely 1: the observed
    # proxy marginal coincides with the censored-variable marginal
    from mdid.kernel import NamedTable
    md = md_dag([], ["X1"])
    one = NamedTable(("R1",), {"R1": (0, 1)}, np.array([0.0, 1.0]))
    full = O.sample_full_law(md, 2, seed=0, tables={"R1": one})
    obs = O.derive_observed_law(md, full)
    got = obs.marginal(frozenset({"X1"}))
    truth = full.marginal(frozenset({"X1(1)"}))
    for val in (0, 1):
        assert abs(float(got.take({"X1": val}).data)
                   - float(truth.take({"X1(1)": val}).data)) <= 1e-12
    assert abs(float(got.take({"X1": "?"}).data)) <= 1e-12


def test_singleton_class_without_selection_degenerates_to_plain_division():
    for md in (md_dag([], ["X1", "X2"]), load("block_sequential")):
        sched = FixingSchedule((frozenset({"R1"}),), (), (md.truths,))
        ok, viol, plan = validate_schedule(md, sched)
        assert ok, viol
        assert plan.denominators[0] == K.Atom("p", ("R1",))
