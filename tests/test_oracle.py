import collections
import functools
import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdid.fixtures import FIXTURE_NAMES, load
from mdid.gfile import parse_graph_file
from mdid.graph import Cadmg
from mdid.identify import identify_full, identify_target
from mdid import kernel as K
from mdid.kernel import NamedTable
from mdid.missing import colluder_scan
from mdid.model import MdDag, md_dag
from mdid import oracle as O

from conftest import check_derived, ci_check, functions_of, hidden_dag_for, plan_marginals, \
    random_mddag, stored_alone, sum_out

DATA = Path(__file__).parent / "data"
GOLDEN_RANDOM = json.loads((Path(__file__).parent / "golden_random_outputs.json").read_text())["models"]


def table(dims, doms, data):
    return NamedTable(tuple(dims), dict(doms), np.asarray(data, dtype=float))


def collider_pair_cpts(a, b, c, d, e, f, g):
    """Explicit parameter tables for the two-triple collider model."""
    md = load("colluder_pair")
    t = {}
    t["R1"] = table(("R1",), {"R1": (0, 1)}, [a, 1 - a])
    t["X1(1)"] = table(("X1(1)",), {"X1(1)": (0, 1)}, [b, 1 - b])
    t["X2(1)"] = table(("X2(1)",), {"X2(1)": (0, 1)}, [c, 1 - c])
    r2 = np.empty((2, 2, 2))   # axes sorted: R1, R2, X1(1)
    r2[0, 0, 0] = d; r2[0, 1, 0] = 1 - d
    r2[1, 0, 0] = e; r2[1, 1, 0] = 1 - e
    r2[0, 0, 1] = f; r2[0, 1, 1] = 1 - f
    r2[1, 0, 1] = g; r2[1, 1, 1] = 1 - g
    t["R2"] = table(("R1", "R2", "X1(1)"),
                    {"R1": (0, 1), "R2": (0, 1), "X1(1)": (0, 1)}, r2)
    return md, t


def test_sampling_is_deterministic_and_positive():
    md = load("staggered_trio")
    l1 = O.sample_full_law(md, 2, seed=4)
    l2 = O.sample_full_law(md, 2, seed=4)
    allv = frozenset(l1.variables)
    assert l1.marginal(allv).max_abs_diff(l2.marginal(allv)) == 0.0
    for t in l1.factors:
        if any(v in md.proxies for v in t.dims):
            continue
        assert (t.data >= O.CPT_FLOOR - 1e-12).all()


def test_law_rejects_negative_or_non_finite_factors():
    # contraction multiplies plainly, so a law's factors must be finite and
    # non-negative
    half = table(("A",), {"A": (0, 1)}, [0.5, 0.5])
    for cells in ([0.5, -0.1], [0.5, np.nan], [np.inf, 0.5]):
        with pytest.raises(O.OracleError, match="negative or non-finite"):
            O.FactoredLaw("p", {"A": (0, 1)}, (half, table(("A",), {"A": (0, 1)}, cells)))


def test_law_rejects_a_factor_axis_off_its_domain():
    # marginals are padded to the law's domains, which every factor must share
    for doms in ({"A": (1, 0)}, {"A": (0, 1, "?")}):
        cells = np.full(len(doms["A"]), 1 / len(doms["A"]))
        with pytest.raises(O.OracleError, match="factor axis 'A' has values"):
            O.FactoredLaw("p", {"A": (0, 1)}, (table(("A",), doms, cells),))
    # an axis outside the law's variables is summed out and not checked
    O.FactoredLaw("p", {"A": (0, 1)}, (table(("A", "U"), {"A": (0, 1), "U": (0, 1, 2)},
                                             np.full((2, 3), 1 / 6)),))


def test_law_rejects_a_head_that_is_no_conditional():
    # a headed factor is left out of a marginal that does not need its head,
    # which is sound only if it sums to 1 over the head
    cpt = table(("A", "B"), {"A": (0, 1), "B": (0, 1)}, [[0.3, 0.7], [0.6, 0.4]])
    domains = {"A": (0, 1), "B": (0, 1)}
    O.FactoredLaw("p", domains, (cpt,), ("B",))
    with pytest.raises(O.OracleError, match="sums to 1 over its head 'A' only within 0.1"):
        O.FactoredLaw("p", domains, (cpt,), ("A",))
    off = table(("A", "B"), domains, [[0.3, 0.7], [0.6, 0.4 + 1e-11]])
    with pytest.raises(O.OracleError, match="head 'B' only within 1e-11"):
        O.FactoredLaw("p", domains, (off,), ("B",))
    with pytest.raises(O.OracleError, match="head 'C' is not an axis"):
        O.FactoredLaw("p", domains, (cpt,), ("C",))
    with pytest.raises(O.OracleError, match="2 heads for 1 factors"):
        O.FactoredLaw("p", domains, (cpt,), ("B", None))
    # a factor whose role is unknown is not checked
    assert O.FactoredLaw("p", domains, (cpt,)).heads == (None,)


def test_sampled_laws_head_each_cpt_by_its_vertex():
    md = load("octet")
    full = O.sample_full_law(md, 2, 0)
    assert full.heads == md.graph.topological_order()
    assert all(set(f.dims) == {v} | md.graph.parents([v])
               for f, v in zip(full.factors, full.heads))
    dag = hidden_dag_for(load("confounded_chain"))
    assert O.sample_dag_law(dag, 2, 0).heads == dag.topological_order()
    assert full.dense(md.truths).heads == (None,)


def test_laws_that_differ_only_in_heads_share_no_plan():
    # the same axes and zeros, but only the first law says that B's factor
    # is a CPT, so only its marginal of A may leave that factor out
    a = table(("A",), {"A": (0, 1)}, [0.4, 0.6])
    b = table(("A", "B"), {"A": (0, 1), "B": (0, 1)}, [[0.3, 0.7], [0.6, 0.4]])
    domains = {"A": (0, 1), "B": (0, 1)}
    for first in (True, False):
        K._program.cache_clear()
        headed = O.FactoredLaw("p", domains, (a, b), ("A", "B"))
        twice = O.FactoredLaw("p", domains, (a, table(b.dims, b.domains, 2 * b.data)))
        laws = (headed, twice) if first else (twice, headed)
        got = {law is headed: law.marginal({"A"}).data for law in laws}
        np.testing.assert_allclose(got[True], [0.4, 0.6], rtol=1e-12)
        np.testing.assert_allclose(got[False], [0.8, 1.2], rtol=1e-12)


@pytest.mark.parametrize("cardinality", [-1, 0, 1])
def test_sampled_laws_need_two_values_per_variable(cardinality):
    # a cardinality of 0 used to give sample_dag_law a law of mass 0.0
    with pytest.raises(O.OracleError, match="cardinality must be at least 2"):
        O.sample_dag_law(Cadmg(["A", "B"], [("A", "B")]), cardinality=cardinality)
    with pytest.raises(O.OracleError, match="cardinality must be at least 2"):
        O.make_cpts(load("crisscross"), cardinality)


def test_observed_law_reuses_the_full_law_checks(monkeypatch):
    md = load("octet")
    full = O.sample_full_law(md, 2, 0)
    variables = dict(full.variables)

    def refuse(law):
        raise AssertionError("a law was checked again")

    monkeypatch.setattr(O.FactoredLaw, "__post_init__", refuse)
    obs = O.derive_observed_law(md, full)
    assert obs.factors is full.factors and obs.heads is full.heads
    assert obs._pattern is full._pattern
    assert (obs.name, set(obs.variables)) == ("p", md.observed_columns)
    assert (full.name, full.variables) == ("full", variables)


def test_mcar_two_triples_is_product_law():
    md = md_dag([], ["X1", "X2"])
    law = O.sample_full_law(md, 2, seed=1)
    gap = ci_check(law, ["X1(1)"], ["R1"])
    assert gap <= 1e-12
    gap = ci_check(law, ["R1"], ["R2"])
    assert gap <= 1e-12


def test_observed_law_mass_and_consistency():
    md = load("latent_trio")
    full = O.sample_full_law(md, 2, seed=7)
    obs = O.derive_observed_law(md, full)
    assert abs(float(obs.table.data.sum()) - 1.0) <= 1e-12
    # refactoring the joint by the graph recovers the sampled CPTs
    g = md.graph
    allv = frozenset(full.variables)
    joint = full.marginal(allv)
    for t in full.factors:
        child = next(v for v in t.dims
                     if set(t.dims) == {v} | set(g.parents([v])))
        pa = frozenset(g.parents([child]))
        num = full.marginal(pa | {child})
        den = full.marginal(pa)
        got = NamedTable.join(num, den, np.divide)
        mask = ~np.isnan(got.aligned(t.dims, t.domains))
        diff = np.abs(got.aligned(t.dims, t.domains) - t.data)
        assert np.nanmax(np.where(mask, diff, 0.0)) <= 1e-12


def test_collider_pair_parameter_table():
    # explicit parameters reproduce the closed-form observed masses
    a, b, c, d, e, f, g = 0.4, 0.5, 0.3, 0.3, 0.25, 0.5, 0.65
    md, tables = collider_pair_cpts(a, b, c, d, e, f, g)
    full = O.sample_full_law(md, 2, seed=0, tables=tables)
    obs = O.derive_observed_law(md, full)
    cell = obs.marginal(frozenset({"R1", "R2"})).take({"R1": 0, "R2": 0})
    assert abs(float(cell.data) - a * (d * b + f * (1 - b))) <= 1e-12
    cell = obs.marginal(frozenset({"R1", "R2", "X1"})).take(
        {"R1": 1, "R2": 0, "X1": 0})
    assert abs(float(cell.data) - (1 - a) * e * b) <= 1e-12


def test_constraint_surface_pair_agree_on_observed_law():
    # holding the censored mixture constant hides the change entirely
    a, b, c = 0.4, 0.5, 0.3
    d1, f1 = 0.3, 0.5
    d2, f2 = 0.5, 0.3           # d*b + f*(1-b) = 0.4 in both
    md, t1 = collider_pair_cpts(a, b, c, d1, 0.25, f1, 0.65)
    _, t2 = collider_pair_cpts(a, b, c, d2, 0.25, f2, 0.65)
    l1 = O.sample_full_law(md, 2, seed=0, tables=t1)
    l2 = O.sample_full_law(md, 2, seed=0, tables=t2)
    o1, o2 = O.derive_observed_law(md, l1), O.derive_observed_law(md, l2)
    assert o1.table.max_abs_diff(o2.table) <= 1e-12
    allv = frozenset(l1.variables)
    assert l1.marginal(allv).max_abs_diff(l2.marginal(allv)) >= 1e-3


def test_ci_check_examples():
    md = md_dag([], ["X1", "X2"])
    law = O.sample_full_law(md, 2, seed=3)
    assert ci_check(law, ["X1(1)"], ["X2(1)"]) <= 1e-12
    g = Cadmg("AB", [("A", "B")])
    law2 = O.sample_dag_law(g, 2, seed=1)
    assert ci_check(law2, ["A"], ["B"]) > 1e-3


def test_verify_functional_negative_control():
    # a deliberately wrong propensity must be loudly wrong: pretend R1 is
    # missing-completely-at-random although it depends on censored parents
    md = load("crisscross")
    rep = identify_target(md)
    assert rep.status == "identified"
    good = O.verify_target_functional(md, rep.functional, trials=20, seed=5)
    assert good.max_error <= 1e-9
    from mdid.missing import assemble_target_law
    wrong = dict(rep.propensities)
    wrong["R1"] = K.Atom("p", ("R1",))
    bad = assemble_target_law(md, wrong)
    failures = 0
    for t in range(100):
        full = O.sample_full_law(md, 2, seed=1000 + t)
        obs = O.derive_observed_law(md, full)
        err = O.target_law(md, full).max_abs_diff(bad.evaluate(obs))
        failures += err >= 1e-3
    assert failures >= 95


class UndefinedOnTrial:
    """A target functional that evaluates as the given one, except on one
    trial (counted from 1), where every cell is undefined."""

    def __init__(self, functional, trial: int):
        self.functional, self.trial, self.calls = functional, trial, 0

    def evaluate(self, obs):
        self.calls += 1
        tab = self.functional.evaluate(obs)
        if self.calls != self.trial:
            return tab
        return NamedTable(tab.dims, tab.domains, np.full(tab.data.shape, np.nan))


def test_verification_fails_a_trial_that_goes_undefined():
    md = load("crisscross")
    rep = O.verify_target_functional(md, UndefinedOnTrial(target_functional("crisscross"), 2),
                                     trials=3)
    assert rep.per_trial[0] <= 1e-9 and np.isnan(rep.per_trial[1])
    assert np.isnan(rep.max_error) and rep.undefined_cells > 0
    assert not rep.ok(1e-9)
    # undefined cells fail a report, and so does a NaN error
    assert not O.VerifyReport(2, 1e-12, 4, [1e-12, 1e-12]).ok(1e-9)
    assert not O.VerifyReport(2, float("nan"), 0, [1e-12, float("nan")]).ok(1e-9)
    assert O.VerifyReport(2, 1e-12, 0, [1e-12, 1e-12]).ok(1e-9)


def test_colluder_witness_quantitative():
    md = load("colluder_pair")
    pair = colluder_scan(md)[0]
    l1, l2 = O.colluder_witness(md, pair, seed=1)
    o1, o2 = O.derive_observed_law(md, l1), O.derive_observed_law(md, l2)
    assert o1.table.max_abs_diff(o2.table) <= 1e-12
    allv = frozenset(l1.variables)
    gap = l1.marginal(allv).max_abs_diff(l2.marginal(allv))
    assert gap >= 1e-3
    # the proxies are deterministic in (X(1), R): the laws without them
    # differ by the same gap
    core = md.truths | md.indicators | md.observed
    assert l1.marginal(core).max_abs_diff(l2.marginal(core)) == pytest.approx(gap, abs=1e-15)
    for law in (l1, l2):
        joint = law.marginal(allv)
        assert abs(float(joint.data.sum()) - 1.0) <= 1e-12
        assert (joint.data >= -1e-15).all()
    with pytest.raises(O.OracleError):
        O.colluder_witness(md, ("R1", "R2"))
    # names that are not indicators of the model are refused the same way
    for bad in [("R9", "R2"), ("R1", "X2(1)")]:
        with pytest.raises(O.OracleError, match="is not a collider-certificate pair"):
            O.colluder_witness(md, bad)


def test_witness_on_embedded_colluder():
    # collider pair embedded in a larger random ambient model
    md = load("latent_trio")
    pair = colluder_scan(md)[0]
    l1, l2 = O.colluder_witness(md, pair, seed=2)
    o1, o2 = O.derive_observed_law(md, l1), O.derive_observed_law(md, l2)
    assert o1.table.max_abs_diff(o2.table) <= 1e-12
    allv = frozenset(l1.variables)
    assert l1.marginal(allv).max_abs_diff(l2.marginal(allv)) >= 1e-3


def test_witness_for_seven_censored_variables():
    # the dense full law has 4^7 * 3^7 = 35,831,808 cells, past MAX_CELLS;
    # the witness compares the laws over (X(1), R), 4^7 = 16,384 cells
    md = md_dag([("X2(1)", "R1"), ("R2", "R1")], [f"X{i}" for i in range(1, 8)])
    l1, l2 = O.colluder_witness(md, ("R1", "R2"))
    o1, o2 = O.derive_observed_law(md, l1), O.derive_observed_law(md, l2)
    assert o1.table.max_abs_diff(o2.table) <= 1e-12
    core = md.truths | md.indicators | md.observed
    assert l1.marginal(core).max_abs_diff(l2.marginal(core)) >= 1e-3
    with pytest.raises(K.ExprError, match="exceeds MAX_CELLS"):
        l1.table


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_witness_when_the_colluding_variable_has_a_parent_and_other_children(seed):
    # X2(1) has a parent, X1(1), and children X3(1) and R3 beside R1 and its
    # proxy; the witness makes those children ignore it
    md = md_dag([("X2(1)", "R1"), ("R2", "R1"), ("X1(1)", "X2(1)"),
                 ("X2(1)", "X3(1)"), ("X2(1)", "R3")], ["X1", "X2", "X3"])
    l1, l2 = O.colluder_witness(md, ("R1", "R2"), seed=seed)
    o1, o2 = O.derive_observed_law(md, l1), O.derive_observed_law(md, l2)
    seen = md.proxies | md.observed
    assert o1.marginal(seen).max_abs_diff(o2.marginal(seen)) <= 1e-12
    core = md.truths | md.indicators | md.observed
    assert l1.marginal(core).max_abs_diff(l2.marginal(core)) >= 1e-3


def test_witness_for_nine_censored_variables():
    # each indicator is a function of its proxy, so the witness compares the
    # observed laws over the proxies alone: 3^9 = 19,683 cells, where the
    # observed joint with the indicators has 6^9, about 1e7
    md = md_dag([("X2(1)", "R1"), ("R2", "R1")], [f"X{i}" for i in range(1, 10)])
    tracemalloc.start()
    try:
        l1, l2 = O.colluder_witness(md, ("R1", "R2"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 25
    o1, o2 = O.derive_observed_law(md, l1), O.derive_observed_law(md, l2)
    seen = md.proxies | md.observed
    assert o1.marginal(seen).max_abs_diff(o2.marginal(seen)) <= 1e-12
    core = md.truths | md.indicators | md.observed
    assert l1.marginal(core).max_abs_diff(l2.marginal(core)) >= 1e-3


def test_witness_for_ten_censored_variables():
    # the laws differ by 1/10 at one full-law cell at any size, and the other
    # vertices concentrate their mass, so the dense gap stays past 1e-3
    md = md_dag([("X2(1)", "R1"), ("R2", "R1")], [f"X{i}" for i in range(1, 11)])
    tracemalloc.start()
    try:
        l1, l2 = O.colluder_witness(md, ("R1", "R2"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 25
    seen = md.proxies | md.observed
    assert l1.marginal(seen).max_abs_diff(l2.marginal(seen)) <= 1e-12
    cell = {"R1": 0, "R2": 0, "X2(1)": 0}
    assert float(l1.marginal((), cell).data) == pytest.approx(0.125, abs=1e-12)
    assert float(l2.marginal((), cell).data) == pytest.approx(0.225, abs=1e-12)
    core = md.truths | md.indicators          # 2^20 cells
    assert l1.marginal(core).max_abs_diff(l2.marginal(core)) >= 1e-3


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(2, 5), n_obs=st.integers(0, 1),
       allow_self_censoring=st.booleans(), witness_seed=st.integers(0, 10_000))
def test_witness_for_every_colluder_of_random_models(seed, k, n_obs, allow_self_censoring,
                                                     witness_seed):
    md = random_mddag(np.random.default_rng(seed), k, n_obs=n_obs,
                      allow_self_censoring=allow_self_censoring)
    core = md.truths | md.indicators | md.observed
    for pair in colluder_scan(md):
        l1, l2 = O.colluder_witness(md, pair, seed=witness_seed)
        o1, o2 = O.derive_observed_law(md, l1), O.derive_observed_law(md, l2)
        assert o1.table.max_abs_diff(o2.table) <= 1e-12
        assert l1.marginal(core).max_abs_diff(l2.marginal(core)) >= 1e-3
        for law in (l1, l2):
            for f, head in zip(law.factors, law.heads):
                if head in core:
                    assert f.data.min() >= O.CPT_FLOOR


def factor_checksum(law) -> str:
    """Hash of every factor's axes, domains, dtype, shape and raw bytes."""
    h = hashlib.sha256()
    for f in law.factors:
        h.update(repr((f.dims, [f.domains[d] for d in f.dims], f.data.dtype.str,
                       f.data.shape)).encode())
        h.update(f.data.tobytes())
    return h.hexdigest()[:16]


# recorded from the sampler before the law types were merged: sampled laws
# must stay bitwise identical, i.e. the random stream is consumed unchanged
FULL_LAW_CHECKSUMS = {
    ("block_sequential", 0): "78a24c7af6bb7cc9",
    ("block_sequential", 1): "0f3f418e251841ba",
    ("crisscross", 0): "ec9847cc781948f2",
    ("crisscross", 1): "3fd17be300a94ef8",
    ("staggered_trio", 0): "f20a2c1c4449cda3",
    ("staggered_trio", 1): "31f79e134708c1c1",
    ("latent_trio", 0): "2bc1e025464b3ffe",
    ("latent_trio", 1): "7c02696b932acc32",
    ("joint_quartet", 0): "c5484e81aea356b3",
    ("joint_quartet", 1): "0404731fca4f9574",
    ("context_fix", 0): "533f0ff9428e85c3",
    ("context_fix", 1): "0deaae59124d0f5d",
    ("octet", 0): "1a17023394793ad5",
    ("octet", 1): "7f46566cc1a2be75",
    ("colluder_pair", 0): "48e83ed7db527428",
    ("colluder_pair", 1): "ca13f3f22007c3dd",
}
DAG_LAW_CHECKSUMS = {0: "754709ca03db2a01", 1: "26e3174b55aa7f34"}

MISSING_DATA_FIXTURES = [n for n in FIXTURE_NAMES if isinstance(load(n), MdDag)]


def test_sampled_laws_match_recorded_checksums():
    got = {(name, seed): factor_checksum(O.sample_full_law(load(name), 2, seed))
           for name in MISSING_DATA_FIXTURES for seed in (0, 1)}
    assert got == FULL_LAW_CHECKSUMS
    dag = hidden_dag_for(load("confounded_chain"))
    assert {seed: factor_checksum(O.sample_dag_law(dag, 2, seed))
            for seed in (0, 1)} == DAG_LAW_CHECKSUMS


@pytest.mark.parametrize("name", MISSING_DATA_FIXTURES)
def test_observed_law_marginals_match_dense_observed_law(name):
    # the observed law eliminates over the full law's CPTs; its marginals
    # must equal sums of the densified observed joint
    md = load(name)
    full = O.sample_full_law(md, 2, seed=3)
    obs = O.derive_observed_law(md, full)
    dense = full.dense(md.observed_columns)
    assert set(obs.variables) == set(dense.variables) == md.observed_columns
    assert obs.table.max_abs_diff(dense.table) <= 1e-12
    for t in md.triples:
        for names in ({t.indicator}, {t.proxy}, {t.indicator, t.proxy},
                      md.observed_columns - {t.proxy}):
            assert obs.marginal(names).max_abs_diff(dense.marginal(names)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_marginal_with_evidence_is_slice_of_marginal(data):
    # slicing every factor before elimination gives the cells that slicing
    # the marginal afterwards gives
    md = load(data.draw(st.sampled_from(MISSING_DATA_FIXTURES)))
    law = O.derive_observed_law(
        md, O.sample_full_law(md, 2, data.draw(st.integers(0, 1000))))
    cols = sorted(law.variables)
    names = set(data.draw(st.lists(st.sampled_from(cols), unique=True)))
    pinned = data.draw(st.lists(st.sampled_from(cols), unique=True))
    ev = {v: data.draw(st.sampled_from(law.variables[v])) for v in pinned}
    got = law.marginal(names, ev)
    want = law.marginal(names | set(ev)).take(ev)
    assert got.dims == want.dims == tuple(sorted(names - set(ev)))
    assert got.max_abs_diff(want) <= 1e-12


def reference_evaluate(e: K.Expr, law, memo: dict) -> NamedTable:
    """Evaluation that takes each atom's marginal over all its variables
    first and slices it at the pins afterwards."""
    if e not in memo:
        if isinstance(e, K.One):
            out = NamedTable((), {}, np.asarray(1.0))
        elif isinstance(e, K.Atom):
            out = law.marginal(set(e.vars) | set(e.ctx))
            if e.ctx:
                out = NamedTable.join(out, sum_out(out, e.vars), np.divide)
            out = out.take(dict(e.pins))
        elif isinstance(e, K.Marginal):
            out = sum_out(reference_evaluate(e.child, law, memo), e.over)
        elif isinstance(e, K.Product):
            out = NamedTable((), {}, np.asarray(1.0))
            for c in e.children:
                out = NamedTable.join(out, reference_evaluate(c, law, memo), np.multiply)
        else:
            out = NamedTable.join(reference_evaluate(e.num, law, memo),
                                  reference_evaluate(e.den, law, memo), np.divide)
        memo[e] = out
    return memo[e]


@pytest.mark.parametrize("name", MISSING_DATA_FIXTURES)
def test_target_functional_matches_reference_evaluation(name):
    md = load(name)
    rep = identify_target(md)
    assert rep.status == "identified"
    for seed in (0, 1):
        obs = O.derive_observed_law(md, O.sample_full_law(md, 2, seed))
        want = reference_evaluate(rep.functional.expr, obs, {})
        # evaluation keeps the result on its support; the reference is padded
        got = K.evaluate_numeric(rep.functional.expr, obs).padded(want.domains)
        assert got.dims == want.dims
        assert np.array_equal(np.isnan(got.data), np.isnan(want.data))
        assert got.max_abs_diff(want) <= 1e-12


@functools.cache
def target_functional(name: str):
    rep = identify_target(load(name))
    assert rep.status == "identified"
    return rep.functional



def evaluate_alone(expr: K.Expr, law: O.FactoredLaw) -> NamedTable:
    """The tree walk that ``evaluate_numeric`` plans, run node by node,
    with each atom's joint and context made by ``stored_alone``, so that no
    marginal reads the steps of another.  Each node's array is held as the
    program holds it, without the axes its layout drops, and each join and
    sum is the call the program binds, so the two sum and divide in one
    order."""
    functions = functions_of(law._pattern)[1]
    plans, sources = plan_marginals(law, expr)
    memo: dict = {}

    def join(a, b, divide: bool):
        plan = K._join_plan(a[1], b[1], K._states(a[0]), K._states(b[0]), divide, functions)
        op = np.divide if divide else np.multiply
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return K._bind_two(0, 1, *plan.operands, op, (), plan.fixes)(
                [a[0], b[0]]), plan.out

    def walk(e: K.Expr):
        if e not in memo:
            if isinstance(e, K.One):
                out = np.asarray(1.0), K._Layout((), {}, ())
            elif isinstance(e, K.Atom):
                joint, *ctx = [(stored_alone(law, plans, sources, asked), plans[asked].layout)
                               for asked in K._marginals(e)]
                out = join(joint, ctx[0], True) if ctx else joint
            elif isinstance(e, K.Marginal):
                data, layout = walk(e.child)
                keep = tuple(d for d in layout.dims if d not in e.over)
                if keep != layout.dims:
                    summed = K._Layout(keep, {d: layout.domains[d] for d in keep},
                                       tuple(x for x in layout.drop if {x[0], x[1]} <= set(keep)))
                    data = K._bind_derived(0, K._derivation(layout, summed, {}))([data])
                    layout = summed
                out = data, layout
            elif isinstance(e, K.Product):
                out = walk(e.children[0])
                for c in e.children[1:]:
                    out = join(out, walk(c), False)
            else:
                out = join(walk(e.num), walk(e.den), True)
            memo[e] = out
        return memo[e]

    data, layout = walk(expr)
    data = K._converted(data, K._conversion(layout, layout.dims, layout.domains, {}))
    return NamedTable(layout.dims, dict(layout.domains), data)


@pytest.mark.parametrize("name", MISSING_DATA_FIXTURES)
@pytest.mark.parametrize("cardinality", [2, 3])
def test_shared_steps_match_marginals_contracted_alone(name, cardinality):
    # a program runs a step that several of its marginals share once, and
    # derives a marginal from another's register; each table of the target
    # functional and every propensity must equal the one made from marginals
    # that share nothing, each derived one by the same call on its source's
    # table computed alone, cell for cell, NaN included
    md = load(name)
    functional = target_functional(name)
    law = O.derive_observed_law(md, O.sample_full_law(md, cardinality, 0))
    for e in [functional.expr, *(q for _, q in sorted(functional.propensities.items()))]:
        want = evaluate_alone(e, law).padded(law.variables)
        got = K.evaluate_numeric(e, law).padded(want.domains)
        assert got.dims == want.dims and got.domains == want.domains
        assert np.array_equal(got.data, want.data, equal_nan=True)


@functools.cache
def identified_functionals(name: str) -> tuple:
    """The model of a fixture or golden random model, and the expressions
    identified for it: the target functional, the full-law functional and
    every propensity of either."""
    md = load(name) if name in FIXTURE_NAMES else parse_graph_file(GOLDEN_RANDOM[name])
    exprs = []
    for rep in (identify_target(md), identify_full(md)):
        if rep.status == "identified":
            exprs += [rep.functional.expr, *(q for _, q in sorted(rep.propensities.items()))]
    return md, tuple(dict.fromkeys(exprs))


# marginals derived at evidence without mass: R1 = 1 leaves X1 = "?" out
# of the source's support, so each marginal at X1 = "?" is zero, on an empty
# support or as a scalar
NO_MASS = K.Product((K.Atom("p", ("R1", "R2", "X1"), pins=(("R1", 1),)),
                     K.Atom("p", ("R1", "R2", "X1"), pins=(("R1", 1), ("X1", "?"))),
                     K.Atom("p", ("R1", "X1"), pins=(("R1", 1), ("X1", "?")))))


@pytest.mark.parametrize("name", MISSING_DATA_FIXTURES)
@pytest.mark.parametrize("cardinality", [2, 3])
def test_derived_marginals_match_direct_plans(name, cardinality):
    md, exprs = identified_functionals(name)
    law = O.derive_observed_law(md, O.sample_full_law(md, cardinality, 0))
    derived = [t for e in exprs for t in check_derived(law, e)]
    assert derived
    if name == "crisscross":
        empty, scalar = check_derived(law, NO_MASS)
        assert empty.dims == ("R2",) and empty.domains == {"R2": ()}
        assert scalar.dims == () and scalar.data.item() == 0.0


@pytest.mark.parametrize("name", sorted(GOLDEN_RANDOM))
def test_derived_marginals_match_direct_plans_on_random_models(name):
    md, exprs = identified_functionals(name)
    law = O.derive_observed_law(md, O.sample_full_law(md, 2, 0))
    for e in exprs:
        check_derived(law, e)


def counting_compiles():
    """The number of programs planned from now on: misses of the program
    cache."""
    programs = K._program
    start = programs.cache_info().misses
    return lambda: programs.cache_info().misses - start


@pytest.mark.parametrize("name", MISSING_DATA_FIXTURES)
@pytest.mark.parametrize("cardinality", [2, 3])
def test_replayed_program_equals_a_fresh_compile(name, cardinality):
    # a second law of the model has the same zeros, so it replays the
    # program the first planned, and gets the tables a fresh plan would
    md = load(name)
    expr = target_functional(name).expr

    def law(seed):
        return O.derive_observed_law(md, O.sample_full_law(md, cardinality, seed))

    K.evaluate_numeric(expr, law(0))
    compiles = counting_compiles()
    second = law(1)
    replayed = K.evaluate_numeric(expr, second)
    assert not compiles()
    fresh = K._program.__wrapped__(expr, second.name, tuple(second.variables.items()),
                                   second._pattern).run(second)
    assert replayed.dims == fresh.dims and replayed.domains == fresh.domains
    assert np.array_equal(replayed.data, fresh.data, equal_nan=True)


def test_planning_runs_no_op(monkeypatch):
    # a program is planned from the law's structure alone: every call is
    # bound to its registers and run once, as it is bound, on its cells'
    # states, whose first registers are the factors' zero patterns as
    # float32 and the unit, never on a law's arrays
    md = load("octet")
    expr = target_functional("octet").expr
    laws = [O.derive_observed_law(md, O.sample_full_law(md, 2, seed)) for seed in (0, 1)]
    first = laws[0]
    patterns = [(t.data != 0).astype(np.float32) for t in first.factors] + [np.float32(1)]
    bound, runs, on_states = [], [], []
    planning = [True]

    def counting(bind):
        def bind_counted(*args):
            call = bind(*args)

            def run(regs):
                runs.append(run)
                if planning[0]:
                    on_states.append(
                        all(np.asarray(r).dtype == np.float32 for r in regs)
                        and all(np.array_equal(r, p) for r, p in zip(regs, patterns)))
                return call(regs)
            bound.append(run)
            return run
        return bind_counted

    with monkeypatch.context() as patch:
        patch.setattr(K, "_bind_two", counting(K._bind_two))
        patch.setattr(K, "_bind_derived", counting(K._bind_derived))
        program = K._program.__wrapped__(expr, first.name, tuple(first.variables.items()),
                                         first._pattern)
    planning[0] = False
    assert runs == bound and len(on_states) == len(bound) and all(on_states)
    runs.clear()
    counted = [op for op in program.ops if op in bound]
    # every call derives one register or combines two
    # (test_octet_program_op_counts)
    assert len(counted) == 95 + 175
    for law in laws:
        runs.clear()
        want = reference_evaluate(expr, law, {})
        got = program.run(law).padded(want.domains)
        assert runs == counted
        assert np.array_equal(np.isnan(got.data), np.isnan(want.data))
        assert got.max_abs_diff(want) <= 1e-12


def planned(expr: K.Expr, law: O.FactoredLaw) -> tuple:
    """The program of expr on the law's structure, planned afresh, and how
    each of its ops was bound: by op, the binder (``_bind_derived`` or
    ``_bind_two``) and its arguments."""
    binds = {}

    def recording(bind):
        def bind_recorded(*args):
            call = bind(*args)
            binds[call] = bind.__name__, args
            return call
        return bind_recorded

    with pytest.MonkeyPatch.context() as patch:
        for name in ("_bind_derived", "_bind_two"):
            patch.setattr(K, name, recording(getattr(K, name)))
        program = K._program.__wrapped__(expr, law.name, tuple(law.variables.items()),
                                         law._pattern)
    return program, binds


def bound(call) -> dict:
    """The values a call binds in its closure, by name."""
    return dict(zip(call.__code__.co_freevars,
                    (cell.cell_contents for cell in call.__closure__ or ())))


def test_octet_program_op_counts():
    # barren CPTs are left out: a proxy's where the atom neither keeps nor
    # pins it, then the indicators and censored variables that fed only
    # those (58 slices and 415 steps before); and 27 of the 37 distinct
    # marginals are derived from another, one call each (47 slices and 301
    # steps before), by the call that also makes each of the 24 sums.  The
    # 33 slices, 11 one-table steps and 51 derived calls derive one
    # register, and the 84 two-table steps and 91 joins combine two
    md = load("octet")
    expr = target_functional("octet").expr
    law = O.derive_observed_law(md, O.sample_full_law(md, 2, 0))
    program, binds = planned(expr, law)
    kinds = collections.Counter(binds[op][0] for op in program.ops)
    assert (kinds["_bind_derived"], kinds["_bind_two"]) == (95, 175)
    assert sum(kinds.values()) == len(program.ops) == 270
    # a slice derives a factor's register, the first registers of a run
    # (_bind_derived's i); a join combines two by np.multiply or np.divide
    # (_bind_two's op)
    derived = [args for kind, args in map(binds.get, program.ops) if kind == "_bind_derived"]
    two = [args for kind, args in map(binds.get, program.ops) if kind == "_bind_two"]
    assert sum(i < len(law.factors) for i, _ in derived) == 33
    assert sum(args[4] is not np.matmul for args in two) == 91
    # the target law needs only the CPTs of the censored variables
    full = O.sample_full_law(md, 2, 0)
    masks, functions = functions_of(full._pattern)
    plan = K._contraction_plan(full._pattern, frozenset(md.truths | md.observed), (), functions,
                               K._support(full._pattern, masks, {}))
    sliced = [key[0] for key in plan.keys if not isinstance(key[0], K._Step)]
    assert {full.heads[pos] for pos in sliced} == md.truths and len(sliced) == 8


def cells_written(program, binds: dict, law) -> tuple[int, int]:
    """The cells a run of the program writes, over all its ops' registers
    and over its joins' alone: the two-register calls (bound as ``planned``
    records) that multiply or divide."""
    regs = program.registers(law)[-len(program.ops):]
    return (sum(np.size(r) for r in regs),
            sum(np.size(r) for op, r in zip(program.ops, regs)
                if binds[op][0] == "_bind_two" and binds[op][1][4] is not np.matmul))


# the octet target program's ops and the cells its registers and its joins
# write.  Before an indicator rode on its proxy's axis: 270 ops, 203,953
# cells, 105,978 in joins at cardinality 2; 272 ops, 2,730,373 cells,
# 1,450,989 in joins at cardinality 3.  The op count may not rise
OCTET_WORK = {2: (270, 47275, 24978), 3: (272, 668689, 388485)}


@pytest.mark.parametrize("cardinality", sorted(OCTET_WORK))
def test_octet_program_work_counts(cardinality):
    md = load("octet")
    expr = target_functional("octet").expr
    law = O.derive_observed_law(md, O.sample_full_law(md, cardinality, 0))
    program, binds = planned(expr, law)
    ops, cells, joins = OCTET_WORK[cardinality]
    assert (len(program.ops), *cells_written(program, binds, law)) == (ops, cells, joins)
    assert ops <= {2: 270, 3: 272}[cardinality]


def test_planning_binds_each_step_once(monkeypatch):
    # a plan holds keys only, so a step is bound once it is a step of the
    # program, never again for another marginal that shares it
    md = load("octet")
    expr = target_functional("octet").expr
    law = O.derive_observed_law(md, O.sample_full_law(md, 2, 0))
    binds = []
    bind = K._Step.bind
    monkeypatch.setattr(K._Step, "bind",
                        lambda step, inputs: binds.append(bind(step, inputs)) or binds[-1])
    program = K._program.__wrapped__(expr, law.name, tuple(law.variables.items()), law._pattern)
    steps = sum(op in binds for op in program.ops)
    assert len(binds) == steps == 95


def test_planning_plans_each_distinct_marginal_once(monkeypatch):
    # the octet functional's atoms ask for 59 marginals, 37 of them distinct:
    # the planner keeps a plan for the program it plans, and no longer
    md = load("octet")
    expr = target_functional("octet").expr
    law = O.derive_observed_law(md, O.sample_full_law(md, 2, 0))
    atoms, todo = set(), [expr]
    while todo:
        e = todo.pop()
        if isinstance(e, K.Atom):
            atoms.add(e)
        todo.extend(getattr(e, "children", ()) + tuple(
            getattr(e, f) for f in ("child", "num", "den") if hasattr(e, f)))
    assert sum(1 + bool(a.ctx) for a in atoms) == 59
    plans = []
    plan = K._contraction_plan
    # the kept variables, evidence and functions a plan is asked for
    monkeypatch.setattr(K, "_contraction_plan", lambda *key: plans.append(key[1:4]) or plan(*key))
    for _ in range(2):
        plans.clear()
        K._program.__wrapped__(expr, law.name, tuple(law.variables.items()), law._pattern)
        assert len(plans) == len(set(plans)) == 37


def test_planning_reads_the_zero_pattern_once(monkeypatch):
    # a program decodes each factor's packed zero bits once (_mask), for its
    # state registers, its functions and every support, and finds the
    # supports once per distinct evidence: the octet functional's 37
    # distinct marginals are asked at 24 (328 decodes and 37 supports before)
    md = load("octet")
    expr = target_functional("octet").expr
    law = O.derive_observed_law(md, O.sample_full_law(md, 2, 0))
    calls = collections.Counter()
    for name in ("_mask", "_support"):
        monkeypatch.setattr(K, name, lambda *args, f=getattr(K, name), name=name:
                            calls.update([name]) or f(*args))
    K._program.__wrapped__(expr, law.name, tuple(law.variables.items()), law._pattern)
    assert calls == {"_mask": len(law.factors), "_support": 24}


# every fixture program's ops at cardinality 2, now and before marginals
# were derived from one another: no program may grow.  Slicing a proxy's
# CPT on its indicator's diagonal leaves joint_quartet 2 steps and
# context_fix 1 step fewer (91 and 65 before)
PROGRAM_OPS = {
    ("block_sequential", "target"): (29, 32),
    ("crisscross", "target"): (44, 53),
    ("crisscross", "full"): (59, 74),
    ("staggered_trio", "target"): (50, 59),
    ("staggered_trio", "full"): (64, 75),
    ("latent_trio", "target"): (43, 61),
    ("joint_quartet", "target"): (89, 138),
    ("context_fix", "target"): (64, 91),
    ("octet", "target"): (270, 463),
    ("colluder_pair", "target"): (16, 16),
}


@pytest.mark.parametrize("name,query", sorted(PROGRAM_OPS))
def test_fixture_program_op_counts(name, query):
    md = load(name)
    rep = (identify_target if query == "target" else identify_full)(md)
    law = O.derive_observed_law(md, O.sample_full_law(md, 2, 0))
    program = K._program(rep.functional.expr, law.name, tuple(law.variables.items()),
                         law._pattern)
    now, before = PROGRAM_OPS[name, query]
    assert len(program.ops) == now <= before


TABLE_DIGEST = """
import hashlib
from mdid import oracle as O
from mdid.fixtures import FIXTURE_NAMES, load
from mdid.identify import identify_full, identify_target
from mdid.model import MdDag

digest = hashlib.sha256()
for name in FIXTURE_NAMES:
    md = load(name)
    if isinstance(md, MdDag):
        reps = [rep for rep in (identify_target(md), identify_full(md))
                if rep.status == "identified"]
        for cardinality in (2, 3):
            law = O.derive_observed_law(md, O.sample_full_law(md, cardinality, 0))
            for rep in reps:
                tab = rep.functional.evaluate(law)
                digest.update(repr((name, cardinality, tab.dims, tab.domains)).encode())
                digest.update(tab.data.tobytes())
print(digest.hexdigest())
"""


def test_evaluated_tables_do_not_depend_on_the_hash_seed():
    # which marginals are derived, and from which source, is decided in the
    # order they are asked and by sorted names, never by set order: every
    # fixture's target and full table is the same bytes under two hash seeds
    src = str(Path(K.__file__).parents[1])
    runs = [subprocess.Popen([sys.executable, "-c", TABLE_DIGEST], stdout=subprocess.PIPE,
                             text=True, env={**os.environ, "PYTHONHASHSEED": seed,
                                             "PYTHONPATH": os.pathsep.join(
                                                 [src, os.environ.get("PYTHONPATH", "")])})
            for seed in ("0", "1")]
    digests = [run.communicate(timeout=600)[0] for run in runs]
    assert all(run.returncode == 0 for run in runs)
    assert len(digests[0]) == 65 and digests[0] == digests[1]


def bound_arrays(call) -> list[np.ndarray]:
    """The arrays a call binds in its closure, inside tuples and the calls
    it binds too."""
    out, todo = [], list(bound(call).values())
    while todo:
        x = todo.pop()
        if isinstance(x, np.ndarray):
            out.append(x)
        elif isinstance(x, tuple):
            todo.extend(x)
        elif getattr(x, "__closure__", None):
            todo.extend(bound(x).values())
    return out


def test_cached_programs_hold_no_array_of_a_law():
    # a law's factors and the table evaluated on it are freed with them,
    # though the program compiled on the law stays cached
    md = load("joint_quartet")
    expr = target_functional("joint_quartet").expr
    law = O.derive_observed_law(md, O.sample_full_law(md, 2, 0))
    got = K.evaluate_numeric(expr, law)
    # a call binds index arrays (a slice's support), never a law's data
    program = K._program(expr, law.name, tuple(law.variables.items()), law._pattern)
    arrays = [x for op in program.ops for x in bound_arrays(op)]
    assert arrays and all(x.dtype == np.intp for x in arrays)
    arrays = [got.data, *(f.data for f in law.factors)]
    refs = [weakref.ref(x.base if x.base is not None else x) for x in arrays]
    del law, got, arrays
    gc.collect()
    assert refs and not any(r() is not None for r in refs)


def test_one_program_serves_laws_whose_float_zeros_differ():
    # p(A, C=0) / (p(A) / p(A, D=0)): C = 0 rules out A = 1 in the
    # numerator, so the quotient runs over the union of the domains of A.
    # With p(A=1 | C=1) = 1e-150 and p(D=0 | A=1) = 1e-200, p(A=1, D=0)
    # underflows to 0.0 while p(A=1) does not: the same zeros in the
    # factors, one more zero in float.  Zero and undefined cells are facts
    # of the zero pattern, so both laws replay one program and get the
    # same zero and NaN cells; the inner quotient divides by the float zero
    # as IEEE arithmetic does, and the numerator's structural zero makes
    # the outer cell zero, as the plan says
    def law(tiny_a, tiny_d):
        ac = table(("A", "C"), {"A": (0, 1), "C": (0, 1)},
                   np.array([[1.0, 1 - tiny_a], [0.0, tiny_a]]))
        ad = table(("A", "D"), {"A": (0, 1), "D": (0, 1)},
                   np.array([[0.5, 0.5], [tiny_d, 1 - tiny_d]]))
        c = table(("C",), {"C": (0, 1)}, np.array([0.5, 0.5]))
        return O.FactoredLaw("p", {v: (0, 1) for v in "ACD"}, (ac, ad, c))

    inner = K.Quotient(K.Atom("p", ("A",)), K.Atom("p", ("A", "D"), (), (("D", 0),)))
    expr = K.Quotient(K.Atom("p", ("A", "C"), (), (("C", 0),)), inner)
    plain, underflow = law(0.5, 0.5), law(1e-150, 1e-200)
    assert plain._pattern == underflow._pattern
    for first, second in ((plain, underflow), (underflow, plain)):
        K._program.cache_clear()
        compiles = counting_compiles()
        got = [K.evaluate_numeric(expr, x) for x in (first, second)]
        assert compiles() == 1
        for tab in got:
            assert tab.dims == ("A",) and tab.domains == {"A": (0, 1)}
            assert tab.data[0] > 0 and tab.data[1] == 0.0
    want = reference_evaluate(expr, plain, {})
    got = K.evaluate_numeric(expr, plain).padded(want.domains)
    assert np.array_equal(np.isnan(got.data), np.isnan(want.data))
    assert got.max_abs_diff(want) <= 1e-12
    assert np.isinf(K.evaluate_numeric(inner, underflow).take({"A": 1}).data)


def cpt_with_rows(md: MdDag, v: str, rows, seed: int) -> NamedTable:
    """v's binary CPT, one row per parent configuration in the order of
    np.ndindex over the sorted parents: a value puts all the row's mass on
    it, None draws a strictly positive row."""
    parents = sorted(md.graph.parents([v]))
    rng = np.random.default_rng(seed)
    data = np.empty((2,) * len(parents) + (2,))
    for idx, row in zip(np.ndindex(data.shape[:-1]), rows):
        p = rng.uniform(0.1, 0.9) if row is None else float(row == 0)
        data[idx] = (p, 1 - p)
    dims = tuple(sorted([v] + parents))
    data = np.transpose(data, [(parents + [v]).index(d) for d in dims])
    return table(dims, {d: (0, 1) for d in dims}, data)


@st.composite
def deterministic_rows(draw, md: MdDag):
    """A substantive or indicator vertex and its CPT's rows, at least one
    of them deterministic."""
    v = draw(st.sampled_from(sorted(md.truths | md.observed | md.indicators)))
    n = 2 ** len(md.graph.parents([v]))
    rows = draw(st.lists(st.sampled_from([None, 0, 1]), min_size=n, max_size=n)
                .filter(lambda rows: any(r is not None for r in rows)))
    return v, rows


@pytest.mark.parametrize("name", MISSING_DATA_FIXTURES)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_evaluation_on_the_support_matches_reference_under_deterministic_rows(name, data):
    # deterministic rows add zeros beyond the proxies', which narrow the
    # supports further; the result, padded, keeps the full-domain
    # evaluation's cells, NaN markers included
    md = load(name)
    v, rows = data.draw(deterministic_rows(md))
    seed = data.draw(st.integers(0, 1000))
    full = O.sample_full_law(md, 2, seed, tables={v: cpt_with_rows(md, v, rows, seed)})
    obs = O.derive_observed_law(md, full)
    expr = target_functional(name).expr
    want = reference_evaluate(expr, obs, {})
    got = K.evaluate_numeric(expr, obs).padded(want.domains)
    assert got.dims == want.dims and got.domains == want.domains
    undefined = np.isnan(want.data)
    assert np.array_equal(np.isnan(got.data), undefined)
    assert np.all(np.abs(got.data - want.data)[~undefined] <= 1e-12)


def test_laws_with_different_zero_patterns_share_no_plan(monkeypatch):
    md = load("joint_quartet")
    functional = target_functional("joint_quartet")
    used = []
    program = K._program
    monkeypatch.setattr(K, "_program", lambda *key: used.append(program(*key)) or used[-1])

    def programs(full):
        used.clear()
        functional.evaluate(O.derive_observed_law(md, full))
        return {id(p) for p in used}

    # R4's only parent is X1(1): at X1(1) = 0 the indicator is always 1
    tables = {"R4": cpt_with_rows(md, "R4", [1, None], 0)}
    positive = programs(O.sample_full_law(md, 2, 0))
    deterministic = programs(O.sample_full_law(md, 2, 0, tables=tables))
    assert positive and deterministic and not positive & deterministic
    # a law with the same zeros replays the same program, planning nothing
    misses = program.cache_info().misses
    assert programs(O.sample_full_law(md, 2, 1, tables=tables)) == deterministic
    assert program.cache_info().misses == misses


def test_marginal_on_the_support_leaves_out_values_without_mass():
    md = load("colluder_pair")
    law = O.derive_observed_law(md, O.sample_full_law(md, 2, 0))
    narrow = law.on_support({"X1", "X2"}, {"R1": 1})
    # R1 = 1 reveals X1, so its "?" row carries no mass
    assert narrow.domains == {"X1": (0, 1), "X2": (0, 1, "?")}
    wide = law.marginal({"X1", "X2"}, {"R1": 1})
    assert wide.domains == {"X1": (0, 1, "?"), "X2": (0, 1, "?")}
    assert wide.max_abs_diff(narrow.padded(law.variables)) == 0.0
    assert wide.max_abs_diff(law.marginal({"X1", "X2", "R1"}).take({"R1": 1})) <= 1e-12
    np.testing.assert_array_equal(wide.take({"X1": "?"}).data, 0.0)


def test_marginal_outside_the_law_variables_raises():
    md = load("colluder_pair")
    obs = O.derive_observed_law(md, O.sample_full_law(md, 2, 0))
    # the observed law's CPTs span the censored X1(1), which it does not hold
    with pytest.raises(O.OracleError, match=r"no variables \['X1\(1\)'\]"):
        obs.marginal({"X1(1)", "R1"})


def test_evidence_outside_the_law_variables_raises():
    law = O.sample_full_law(load("crisscross"), 2, 0)
    for marginal in (law.marginal, law.on_support):
        with pytest.raises(O.OracleError, match=r"no variables \['NOPE'\]"):
            marginal({"R1"}, {"NOPE": 1})


def test_dense_law_over_max_cells_raises():
    # two censored variables of cardinality 64: the full joint has
    # 64^2 * 2^2 * 65^2 cells, past K.MAX_CELLS, while every join before the
    # last stays near a million cells
    law = O.sample_full_law(md_dag([], ["X1", "X2"]), 64, 0)
    with pytest.raises(K.ExprError, match="69222400 cells"):
        law.dense()


@pytest.mark.parametrize("parents, message", [(24, "33554432 cells"),
                                               (32, "33 axes exceeds MAX_AXES")])
def test_cpt_over_max_cells_raises_before_drawing(parents, message):
    # O's CPT spans O and its censored parents: 2^25 cells, or 33 axes, are
    # refused before a cell is drawn, by the rule for joins and pads
    md = md_dag([(f"X{i}(1)", "O") for i in range(parents)],
                [f"X{i}" for i in range(parents)], ["O"])
    tracemalloc.start()
    try:
        with pytest.raises(K.ExprError, match=message):
            O.sample_full_law(md, 2, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 24


@pytest.mark.parametrize("seed, k, p", [(0, 10, 0.3), (0, 12, 0.15), (1, 12, 0.15)])
def test_large_random_models_verify(seed, k, p):
    # the first seeds whose target search succeeds; the dense observed law of
    # these models has 10^8 cells or more, so only evidence keeps them small
    md = random_mddag(np.random.default_rng(seed), k, 1, p)
    rep = identify_target(md)
    assert rep.status == "identified"
    check = O.verify_target_functional(md, rep.functional, trials=3)
    assert check.max_error <= 1e-9
    assert check.undefined_cells == 0


def test_k16_target_functional_evaluates_on_its_support():
    # the result has 2^17 cells; padded to the proxies' domains with "?" it
    # would have 3^16 * 2 = 86,093,442
    md = parse_graph_file((DATA / "random_k16.graph").read_text())
    rep = identify_target(md)
    assert rep.status == "identified"
    obs = O.derive_observed_law(md, O.sample_full_law(md, 2, 0))
    tracemalloc.start()
    try:
        got = rep.functional.evaluate(obs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2 ** 20
    assert got.data.size == 2 ** 17
    check = O.verify_target_functional(md, rep.functional, trials=2)
    assert check.max_error <= 1e-9 and check.undefined_cells == 0
