import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mdid import fixing, identify
from mdid.fixtures import load
from mdid.fixing import FixingSchedule, validate_schedule
from mdid.identify import (SearchBudget, identify_full, identify_indicator,
                           identify_target)
from mdid import kernel as K
from mdid.missing import colluder_scan, without_censored_rows
from mdid.model import md_dag, triple_for
from mdid import oracle as O

from conftest import general_search, random_mddag


def total_order_schedule(md, order, promotions=None):
    classes = tuple(frozenset({r}) for r in order)
    edges = tuple((i, i + 1) for i in range(len(order) - 1))
    proms = tuple(md.truths for _ in order) if promotions is None else promotions
    return FixingSchedule(classes, edges, proms)


def test_validate_schedule_spec_examples():
    md3 = load("staggered_trio")
    # interleaved order with an incomparable singleton, nothing hidden
    sched = FixingSchedule(
        (frozenset({"R1"}), frozenset({"R2"}), frozenset({"R3"})),
        ((1, 2),), (md3.truths, md3.truths, md3.truths))
    ok, viol, _plan = validate_schedule(md3, sched)
    assert ok, viol

    # parallel classes with one censored variable kept latent until last
    md4 = load("latent_trio")
    vis = md4.truths - {"X1(1)"}
    sched = FixingSchedule(
        (frozenset({"R2"}), frozenset({"R3"}), frozenset({"R1"})),
        ((0, 2), (1, 2)), (vis, vis, md4.truths))
    ok, viol, _plan = validate_schedule(md4, sched)
    assert ok, viol

    # no total order over the indicators works when everything stays visible
    for order in (["R1", "R2", "R3"], ["R1", "R3", "R2"], ["R2", "R1", "R3"],
                  ["R2", "R3", "R1"], ["R3", "R1", "R2"], ["R3", "R2", "R1"]):
        ok, viol, _plan = validate_schedule(md3, total_order_schedule(md3, order))
        assert not ok, order


def test_identify_indicator_published_forms():
    md3 = load("staggered_trio")
    res = identify_indicator(md3, "R3")
    assert res.status == "identified"
    # the final conditional divides the R2-fixed kernel and conditions on the
    # censored parent's proxy; frozen canonical form:
    allcols = tuple(sorted(md3.observed_columns))
    num = K.restrict_values(K.Atom("p", allcols), {"R1": 1, "R2": 1})
    den = K.restrict_values(K.Atom("p", ("R2",), ("R1", "R3", "X1")),
                            {"R1": 1, "R2": 1})
    kern = K.quotient(num, den)
    expected = K.quotient(
        K.marginalize(kern, ["X1", "X3"]),
        K.marginalize(kern, ["R3", "X1", "X3"]))
    assert res.propensity == expected

    res2 = identify_indicator(md3, "R2")
    assert res2.propensity == K.restrict_values(
        K.Atom("p", ("R2",), ("R1", "R3", "X1")), {"R1": 1})

    # completely random censoring: the marginal, empty schedule
    mcar = md_dag([], ["X1"])
    r = identify_indicator(mcar, "R1")
    assert r.propensity == K.Atom("p", ("R1",))
    assert r.schedule.classes == (frozenset({"R1"}),)


def test_identify_indicator_set_class():
    md5 = load("joint_quartet")
    res = identify_indicator(md5, "R4")
    assert res.status == "identified"
    assert frozenset({"R1", "R3"}) in res.schedule.classes
    rep = O.verify_indicator_functional(md5, "R4", res.propensity,
                                        trials=40, seed=100)
    assert rep.max_error <= 1e-9


def test_identify_target_fixture_statuses():
    for name in ("block_sequential", "crisscross", "staggered_trio",
                 "latent_trio", "joint_quartet", "context_fix"):
        rep = identify_target(load(name))
        assert rep.status == "identified", name


def test_octet_target_search_work_counts(monkeypatch):
    """The octet target search validates 1,244 schedules, runs 2,052 class
    graph steps, and writes the kernels of only the 19 classes of its
    accepted schedules.  A memo of class graph steps may lower the graph
    steps; a change that moves any of these counts must explain why."""
    counts = {"validate": 0, "graph": 0, "kernel": 0}

    def counting(name, real):
        def wrapped(*args):
            counts[name] += 1
            return real(*args)
        return wrapped

    monkeypatch.setattr(identify, "validate_schedule",
                        counting("validate", identify.validate_schedule))
    monkeypatch.setattr(fixing.SchedulePlan, "subproblem",
                        counting("graph", fixing.SchedulePlan.subproblem))
    monkeypatch.setattr(fixing.SchedulePlan, "_kernel_step",
                        counting("kernel", fixing.SchedulePlan._kernel_step))
    assert identify_target(load("octet")).status == "identified"
    assert counts == {"validate": 1244, "graph": 2052, "kernel": 19}


def test_context_fix_schedule_fixes_nonindicators():
    rep = identify_target(load("context_fix"))
    sched = rep.schedules["R2"]
    members = set().union(*sched.classes)
    assert "O3" in members and "X4(1)" in members


def test_identify_full_examples():
    assert identify_full(load("colluder_pair")).certificate == ("R2", "R1")
    assert identify_full(load("colluder_pair")).status == "not-identified"
    rep = identify_full(load("crisscross"))
    assert rep.status == "identified"
    chk = O.verify_full_functional(load("crisscross"), rep.functional,
                                   trials=30, seed=23)
    assert chk.max_error <= 1e-9
    assert identify_full(md_dag([], ["X1", "X2"])).status == "identified"


def test_full_success_implies_target_success():
    # full-law propensities are strictly more constrained, so they assemble
    # a working target functional as well
    from mdid.missing import assemble_target_law
    for name in ("crisscross", "staggered_trio"):
        md = load(name)
        rf = identify_full(md)
        rt = identify_target(md)
        assert rf.status == "identified"
        assert rt.status == "identified"
        via_full = assemble_target_law(md, rf.propensities)
        chk = O.verify_target_functional(md, via_full, trials=20, seed=37)
        assert chk.max_error <= 1e-9


def test_verdict_monotone_in_budget():
    md = load("joint_quartet")
    small = SearchBudget(max_schedules=2, time_limit=5)
    big = SearchBudget(max_schedules=4000, time_limit=120)
    for r in md.sorted_indicators():
        s_small = identify_indicator(md, r, small).status
        s_big = identify_indicator(md, r, big).status
        if s_small == "identified":
            assert s_big == "identified"


def test_deadline_is_reported_as_its_own_reason(monkeypatch):
    md = load("latent_trio")
    capped = general_search(md, "R1", SearchBudget(max_schedules=2))
    assert capped.status == "unknown"
    assert capped.transcript[-1] == "R1: budget exhausted after 2 schedules"
    # a clock that advances one second per reading: the search starts at 0
    # and its third deadline check reads 3 > 2.5
    ticks = iter(range(10_000))
    monkeypatch.setattr("mdid.identify.time.monotonic", lambda: float(next(ticks)))
    timed = general_search(md, "R1", SearchBudget(time_limit=2.5))
    assert timed.status == "unknown"
    assert timed.transcript[-1] == (
        "R1: budget exhausted after 2 schedules: deadline of 2.5 s reached")


def test_drained_search_says_so():
    # the self-censored X1(1) -> R1 leaves the R1 search three schedules to
    # try; the closing line tells a drained space apart from a hit cap
    md = md_dag([("X1(1)", "R1"), ("X1(1)", "X2(1)"), ("R1", "R2")], ["X1", "X2"])
    res = identify_indicator(md, "R1")
    assert res.status == "unknown"
    assert res.transcript[-1] == "R1: search space drained after 3 schedules"
    assert sum("->" in line for line in res.transcript) == 3
    assert not any("budget exhausted after" in line for line in res.transcript)


def test_max_set_size_skips_schedules_with_larger_classes():
    # joint_quartet's R4 is identified only by fixing R1 and R3 as one
    # class; with classes of one member the search drains without it, and
    # no schedule it tries has a class of two members
    md = load("joint_quartet")
    two = re.compile(r"\{[^{}]*,[^{}]*\}")     # a class rendered as {A,B}
    found = identify_indicator(md, "R4")
    assert found.status == "identified"
    assert found.schedule.classes[0] == frozenset({"R1", "R3"})
    assert any(two.search(line) for line in found.transcript)
    capped = identify_indicator(md, "R4", SearchBudget(max_set_size=1))
    assert capped.status == "unknown"
    assert capped.transcript[-1] == "R4: search space drained after 154 schedules"
    assert not any(two.search(line) for line in capped.transcript)


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_schedules=0)
    with pytest.raises(ValueError):
        SearchBudget(time_limit=float("nan"))
    # a count is an int, never a float, a bool or a string
    for bad in ({"max_schedules": 2.5}, {"max_set_size": 2.0}, {"max_latent_subsets": True},
                {"max_schedules": "10"}):
        with pytest.raises(ValueError):
            SearchBudget(**bad)
    # a time limit is any positive number
    for limit in (5, 2.5, math.inf):
        assert SearchBudget(time_limit=limit).time_limit == limit
    assert SearchBudget(time_limit=math.inf).time_limit == math.inf
    # the deadline is opt-in: by default only the schedule and latent-subset
    # budgets decide a verdict
    assert SearchBudget().time_limit == math.inf


def test_fast_path_consistency():
    # where the ancestral fast path applies, its functional and the general
    # search's agree numerically
    rng = np.random.default_rng(9)
    done = 0
    for _ in range(400):
        md = random_mddag(rng, int(rng.integers(2, 4)))
        if not __import__("mdid.missing", fromlist=["x"]).ancestral_precondition(md):
            continue
        for r in md.sorted_indicators():
            fast = identify_indicator(md, r)
            slow = general_search(md, r)
            assert not any("fast path" in line for line in slow.transcript)
            if slow.status != "identified":
                continue
            assert fast.status == "identified"
            for s in range(5):
                full = O.sample_full_law(md, 2, seed=600 + s)
                obs = O.derive_observed_law(md, full)
                a = without_censored_rows(obs, K.evaluate_numeric(fast.propensity, obs))
                b = without_censored_rows(obs, K.evaluate_numeric(slow.propensity, obs))
                rpar = md.graph.parents([r]) & md.indicators
                a = a.take({x: 1 for x in rpar if x in a.dims})
                b = b.take({x: 1 for x in rpar if x in b.dims})
                assert a.max_abs_diff(b) <= 1e-9
        done += 1
        if done >= 12:
            break
    assert done >= 12


def test_search_soundness_on_random_models():
    # every identified propensity matches the enumerated ground truth
    rng = np.random.default_rng(31)
    models = 0
    budget = SearchBudget(max_schedules=600, time_limit=20)
    while models < 50:
        md = random_mddag(rng, int(rng.integers(2, 5)), n_obs=int(rng.integers(0, 2)))
        models += 1
        for r in md.sorted_indicators():
            res = identify_indicator(md, r, budget)
            if res.status != "identified":
                continue
            rep = O.verify_indicator_functional(md, r, res.propensity,
                                                trials=5, seed=models * 13)
            assert rep.max_error <= 1e-9, (md.graph, r, res.schedule.describe())


def test_search_soundness_under_self_censoring():
    # indicators depending on their own censored variable must never be
    # claimed identified, and everything claimed must still verify
    rng = np.random.default_rng(91)
    budget = SearchBudget(max_schedules=300, time_limit=10)
    for m_i in range(25):
        md = random_mddag(rng, int(rng.integers(2, 5)),
                          allow_self_censoring=True)
        for r in md.sorted_indicators():
            res = identify_indicator(md, r, budget)
            if res.status != "identified":
                continue
            assert md.triple_of(r).truth not in md.graph.parents([r])
            rep = O.verify_indicator_functional(md, r, res.propensity,
                                                trials=4, seed=m_i * 7)
            assert rep.max_error <= 1e-9, (md.graph, r)


def relabel(md, bases, observed):
    """The model with its censored triples, in sorted order, renamed to the
    triples of ``bases`` and its observed variables to ``observed``; returns
    the model and the map from old names to new."""
    name = {}
    for t, base in zip(sorted(md.triples, key=lambda t: t.truth), bases):
        new = triple_for(base)
        name.update({t.truth: new.truth, t.indicator: new.indicator, t.proxy: new.proxy})
    name.update(zip(sorted(md.observed), observed))
    edges = [(name[a], name[b]) for a, b in md.graph.directed_edges
             if b not in md.proxies]
    return md_dag(edges, bases, [name[o] for o in sorted(md.observed)]), name


def capped(report) -> bool:
    """The search stopped at the schedule cap."""
    return any(line.endswith(" schedules") and "budget exhausted" in line
               for line in report.transcript)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.integers(1, 4), n_obs=st.integers(0, 1),
       bases=st.permutations(("X1", "X2", "X3", "X4", "X7", "A", "Y", "Zed")),
       observed=st.sampled_from(("O1", "B", "W2")))
# two unordered classes in one district: R1's schedule must order them
@example(seed=467, k=3, n_obs=1, bases=["X1", "X2", "X3", "X4", "X7", "A", "Y", "Zed"],
         observed="O1")
def test_renaming_the_variables_changes_no_verdict(seed, k, n_obs, bases, observed):
    """Renaming a model's variables changes no verdict.  Schedules may
    differ, since the search breaks ties by name, so only the statuses of
    searches that did not stop at the schedule cap are compared; every
    certificate names a colluder pair of the original model, and every
    identified functional of the renamed model verifies."""
    md = random_mddag(np.random.default_rng(seed), k, n_obs=n_obs)
    md2, name = relabel(md, bases[:k], [observed] * n_obs)
    back = {new: old for old, new in name.items()}
    budget = SearchBudget(max_schedules=500)
    for query, verify in ((identify_target, O.verify_target_functional),
                          (identify_full, O.verify_full_functional)):
        rep, rep2 = query(md, budget), query(md2, budget)
        if not (capped(rep) or capped(rep2)):
            assert rep.status == rep2.status, (query.__name__, md.graph)
        if rep2.certificate:
            assert tuple(back[r] for r in rep2.certificate) in colluder_scan(md)
        if rep2.status == "identified":
            assert verify(md2, rep2.functional, trials=2).ok(1e-9), (query.__name__, md2.graph)
