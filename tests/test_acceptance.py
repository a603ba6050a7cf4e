"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured numbers (run with -s to see them)."""

import time
from itertools import combinations

import numpy as np

from mdid.causal import InterventionQuery, identify_interventional
from mdid.fixing import (FixingSchedule, fix_sequence, is_fixable_vertex,
                         validate_schedule)
from mdid.fixtures import load
from mdid.identify import identify_full, identify_target
from mdid import kernel as K
from mdid.missing import ancestral_precondition, ancestral_schedule, \
    colluder_scan, without_censored_rows
from mdid import oracle as O
from mdid.separation import m_separated

from conftest import admg_law, ci_check, general_search, hidden_dag_for, \
    random_admg, random_dag, random_mddag

TOL = 1e-9


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


# -- 1: interventional quotient on the confounded chain ---------------------

def test_criterion_1_confounded_chain_quotient():
    t0 = time.time()
    g = load("confounded_chain")
    res = identify_interventional(
        g, InterventionQuery(frozenset({"Y"}), (("A", 0),)))
    assert res.status == "identified"
    num = K.marginalize(
        K.product([
            K.restrict_values(K.Atom("p", ("A", "Y"), ("B", "M")), {"A": 0}),
            K.Atom("p", ("B",))]), ["B"])
    den = K.marginalize(
        K.product([
            K.restrict_values(K.Atom("p", ("A",), ("B", "M")), {"A": 0}),
            K.Atom("p", ("B",))]), ["B"])
    assert res.expr == K.quotient(num, den)

    big = hidden_dag_for(g)
    worst = 0.0
    for s in range(100):
        law = O.sample_dag_law(big, 2, seed=s)
        margin = law.dense(g.vertex_names, name="p")
        truth = O.interventional_truth(big, law, ["Y"], {"A": 0})
        got = K.evaluate_numeric(res.expr, margin)
        worst = max(worst, truth.max_abs_diff(got))
    dt = time.time() - t0
    assert worst <= TOL
    assert dt < 5.0
    report(1, f"canonical quotient emitted; 100 laws, max err {worst:.2e}, "
              f"{dt:.1f}s")


# -- 2: the six worked examples ----------------------------------------------

SIX = ("block_sequential", "crisscross", "staggered_trio", "latent_trio",
       "joint_quartet", "context_fix")


def _published_forms(name, md):
    """Printed per-indicator kernels, built with the library's own algebra."""
    if name == "block_sequential":
        return {
            "R1": K.Atom("p", ("R1",)),
            "R2": K.restrict_values(K.Atom("p", ("R2",), ("R1", "X1")),
                                    {"R1": 1}),
            "R3": K.restrict_values(
                K.Atom("p", ("R3",), ("R1", "R2", "X1", "X2")),
                {"R1": 1, "R2": 1}),
        }
    if name == "crisscross":
        return {
            "R1": K.restrict_values(
                K.Atom("p", ("R1",), ("R2", "R3", "X2", "X3")),
                {"R2": 1, "R3": 1}),
            "R2": K.restrict_values(
                K.Atom("p", ("R2",), ("R1", "R3", "X1", "X3")),
                {"R1": 1, "R3": 1}),
            "R3": K.restrict_values(
                K.Atom("p", ("R3",), ("R1", "R2", "X1", "X2")),
                {"R1": 1, "R2": 1}),
        }
    if name == "staggered_trio":
        # q1(R3 | censored parent, R2 fixed) with q1 = p / p(R2 | X1, R1=1, R3)
        allcols = tuple(sorted(md.observed_columns))
        num = K.restrict_values(K.Atom("p", allcols), {"R1": 1, "R2": 1})
        den = K.restrict_values(K.Atom("p", ("R2",), ("R1", "R3", "X1")),
                                {"R1": 1, "R2": 1})
        q1 = K.quotient(num, den)
        q_r3 = K.quotient(K.marginalize(q1, ["X1", "X3"]),
                          K.marginalize(q1, ["R3", "X1", "X3"]))
        return {
            "R1": K.restrict_values(K.Atom("p", ("R1",), ("R3", "X3")),
                                    {"R3": 1}),
            "R2": K.restrict_values(K.Atom("p", ("R2",), ("R1", "R3", "X1")),
                                    {"R1": 1}),
            "R3": q_r3,
        }
    if name == "latent_trio":
        # inside R1's schedule the parallel classes keep R1 free; the
        # emitted standalone propensities pin every indicator parent to 1
        allcols = tuple(sorted(md.observed_columns))
        num = K.restrict_values(K.Atom("p", allcols),
                                {"R2": 1, "R3": 1})
        d2_sched = K.restrict_values(
            K.Atom("p", ("R2",), ("R1", "R3", "X1", "X3")), {"R3": 1})
        d3_sched = K.restrict_values(
            K.Atom("p", ("R3",), ("R1", "R2", "X2")), {"R2": 1})
        q1 = K.quotient(num, K.product([
            K.restrict_values(d2_sched, {"R2": 1}),
            K.restrict_values(d3_sched, {"R3": 1})]))
        q_r1 = K.quotient(K.marginalize(q1, ["X1", "X3"]),
                          K.marginalize(q1, ["R1", "X1", "X3"]))
        return {
            "R1": q_r1,
            "R2": K.restrict_values(
                K.Atom("p", ("R2",), ("R1", "R3", "X1", "X3")),
                {"R1": 1, "R3": 1}),
            "R3": d3_sched,
        }
    return {}


def test_criterion_2_worked_examples():
    t0 = time.time()
    worst = 0.0
    for name in SIX:
        md = load(name)
        rep = identify_target(md)
        assert rep.status == "identified", name
        for r, want in _published_forms(name, md).items():
            assert rep.propensities[r] == want, (name, r)
        chk = O.verify_target_functional(md, rep.functional, trials=100,
                                         seed=1234)
        assert chk.max_error <= TOL, name
        worst = max(worst, chk.max_error)
    # the jointly fixed class emits exactly the printed two-factor kernel
    md5 = load("joint_quartet")
    sched = identify_target(md5).schedules["R4"]
    k = next(i for i, c in enumerate(sched.classes) if c == {"R1", "R3"})
    ok, viol, plan = validate_schedule(md5, sched)
    assert ok
    expected = K.product([
        K.restrict_values(
            K.Atom("p", ("R1",), ("R2", "R3", "R4", "X2", "X3", "X4")),
            {"R3": 1}),
        K.Atom("p", ("R3",), ("R2", "R4", "X2", "X4"))])
    assert plan.denominators[k] == expected
    dt = time.time() - t0
    assert dt < 60.0
    report(2, f"six models identified, printed kernels matched, 100 trials "
              f"each, max err {worst:.2e}, {dt:.1f}s")


# -- 3: negative schedule results ---------------------------------------------

def test_criterion_3_negative_schedules():
    md3 = load("staggered_trio")
    inds3 = sorted(md3.indicators)
    from itertools import permutations
    for order in permutations(inds3):
        classes = tuple(frozenset({r}) for r in order)
        edges = tuple((i, i + 1) for i in range(2))
        sched = FixingSchedule(classes, edges, (md3.truths,) * 3)
        ok, viol, _plan = validate_schedule(md3, sched)
        assert not ok, order

    md5 = load("joint_quartet")
    inds = sorted(md5.indicators)
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    posets = set()
    for mask in range(1 << len(pairs)):
        edges = {pairs[k] for k in range(len(pairs)) if mask >> k & 1}
        closure = set(edges)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(closure):
                for (c, d) in list(closure):
                    if b == c and (a, d) not in closure:
                        closure.add((a, d))
                        changed = True
        if any((a, b) in closure and (b, a) in closure for a, b in pairs):
            continue
        posets.add(frozenset(closure))
    policies = [md5.truths, md5.truths - {"X2(1)", "X4(1)"},
                md5.truths - {"X2(1)"}, md5.truths - {"X4(1)"}]
    checked = 0
    for poset in posets:
        for vis in policies:
            sched = FixingSchedule(tuple(frozenset({r}) for r in inds),
                                   tuple(poset), tuple(vis for _ in inds))
            ok, _viol, _plan = validate_schedule(md5, sched)
            assert not ok
            checked += 1
    vis = md5.truths - {"X2(1)", "X4(1)"}
    joint = FixingSchedule(
        (frozenset({"R1", "R3"}), frozenset({"R2"}), frozenset({"R4"})),
        ((0, 1), (1, 2)), (vis, vis, vis))
    ok, viol, _plan = validate_schedule(md5, joint)
    assert ok, viol
    report(3, f"all 6 total orders fail; {checked} singleton-poset/projection "
              f"combinations fail; the joint-class schedule validates")


# -- 4: the eight-variable worked example -------------------------------------

def _octet_paper_schedules(md):
    T = md.truths
    H = T - {"X2(1)", "X4(1)"}
    Hr2 = T - {"X2(1)"}
    return {
        "R1": FixingSchedule(
            (frozenset({"R5"}), frozenset({"R6"}), frozenset({"R1"})),
            ((0, 2), (1, 2)), (T, T, T)),
        "R8": FixingSchedule(
            (frozenset({"R6"}), frozenset({"R7"}), frozenset({"R8"})),
            ((0, 2), (1, 2)), (T, T, T)),
        "R2": FixingSchedule(
            (frozenset({"R3"}), frozenset({"R5"}), frozenset({"R6"}),
             frozenset({"R1"}), frozenset({"R2"})),
            ((1, 3), (2, 3), (3, 4), (0, 4)),
            (T, Hr2, Hr2, Hr2, T)),
        "R4": FixingSchedule(
            (frozenset({"R5"}), frozenset({"R6"}), frozenset({"R1", "R3"}),
             frozenset({"R2"}), frozenset({"R7"}), frozenset({"R8"}),
             frozenset({"R4"})),
            ((0, 2), (1, 2), (2, 3), (3, 6), (1, 5), (4, 5), (5, 6)),
            (H, H, H, H, T, T, T)),
    }


def test_criterion_4_octet():
    t0 = time.time()
    md = load("octet")
    rep = identify_target(md)
    assert rep.status == "identified"
    t_id = time.time() - t0
    # the worked example's partial orders are valid and numerically agree
    paper = _octet_paper_schedules(md)
    for r, sched in paper.items():
        ok, viol, plan = validate_schedule(md, sched)
        assert ok, (r, viol)
        fi = next(i for i, c in enumerate(sched.classes) if r in c)
        q_paper = plan.denominators[fi]
        for s in range(5):
            full = O.sample_full_law(md, 2, seed=3000 + s)
            obs = O.derive_observed_law(md, full)
            a = without_censored_rows(obs, K.evaluate_numeric(q_paper, obs))
            b = without_censored_rows(
                obs, K.evaluate_numeric(rep.propensities[r], obs))
            rpar = md.graph.parents([r]) & md.indicators
            a = a.take({x: 1 for x in rpar if x in a.dims})
            b = b.take({x: 1 for x in rpar if x in b.dims})
            assert a.max_abs_diff(b) <= TOL, r
    chk = O.verify_target_functional(md, rep.functional, trials=100, seed=77)
    assert chk.max_error <= TOL
    dt = time.time() - t0
    assert dt < 600.0
    report(4, f"eight propensities identified ({t_id:.1f}s); worked-example "
              f"schedules validate and agree; target max err "
              f"{chk.max_error:.2e} over 100 factored trials, {dt:.0f}s")


# -- 5: the collider certificate family --------------------------------------

def _collider_tables(a, b, c, d, e, f, g):
    from mdid.kernel import NamedTable
    t = {}
    t["R1"] = NamedTable(("R1",), {"R1": (0, 1)}, np.array([a, 1 - a]))
    t["X1(1)"] = NamedTable(("X1(1)",), {"X1(1)": (0, 1)}, np.array([b, 1 - b]))
    t["X2(1)"] = NamedTable(("X2(1)",), {"X2(1)": (0, 1)}, np.array([c, 1 - c]))
    r2 = np.empty((2, 2, 2))
    r2[0, 0, 0], r2[0, 1, 0] = d, 1 - d
    r2[1, 0, 0], r2[1, 1, 0] = e, 1 - e
    r2[0, 0, 1], r2[0, 1, 1] = f, 1 - f
    r2[1, 0, 1], r2[1, 1, 1] = g, 1 - g
    t["R2"] = NamedTable(("R1", "R2", "X1(1)"),
                         {"R1": (0, 1), "R2": (0, 1), "X1(1)": (0, 1)}, r2)
    return t


def test_criterion_5_collider_family():
    md = load("colluder_pair")
    assert colluder_scan(md) == [("R2", "R1")]
    rep = identify_full(md)
    assert rep.status == "not-identified" and rep.certificate == ("R2", "R1")

    a, b, c, e, g = 0.4, 0.5, 0.3, 0.25, 0.65
    d1, f1 = 0.3, 0.5
    d2, f2 = 0.5, 0.3          # same mixture d*b + f*(1-b) = 0.4
    l1 = O.sample_full_law(md, 2, 0, tables=_collider_tables(a, b, c, d1, e, f1, g))
    l2 = O.sample_full_law(md, 2, 0, tables=_collider_tables(a, b, c, d2, e, f2, g))
    o1, o2 = O.derive_observed_law(md, l1), O.derive_observed_law(md, l2)
    obs_gap = o1.table.max_abs_diff(o2.table)
    allv = frozenset(l1.variables)
    full_gap = l1.marginal(allv).max_abs_diff(l2.marginal(allv))
    assert obs_gap <= 1e-12 and full_gap >= 1e-3

    # observed mass at both indicators censored equals a*(d*b + f*(1-b)),
    # across a parameter grid
    worst = 0.0
    for (a_, b_, d_, f_) in [(0.4, 0.5, 0.3, 0.5), (0.2, 0.7, 0.6, 0.1),
                             (0.55, 0.35, 0.45, 0.8), (0.3, 0.5, 0.25, 0.9)]:
        tabs = _collider_tables(a_, b_, 0.3, d_, 0.25, f_, 0.65)
        law = O.sample_full_law(md, 2, 0, tables=tabs)
        obs = O.derive_observed_law(md, law)
        cell = obs.marginal(frozenset({"R1", "R2"})).take({"R1": 0, "R2": 0})
        worst = max(worst, abs(float(cell.data)
                               - a_ * (d_ * b_ + f_ * (1 - b_))))
    assert worst <= 1e-12
    report(5, f"surface pair: observed gap {obs_gap:.1e}, full gap "
              f"{full_gap:.1e}; certificate (R2, R1); censored-cell identity "
              f"max dev {worst:.1e}")


# -- 6: fixing invariance ------------------------------------------------------

def test_criterion_6_fixing_invariance():
    t0 = time.time()
    rng = np.random.default_rng(60)
    graphs = 0
    seq_checked = 0
    while graphs < 50:
        n = int(rng.integers(3, 7))
        g = random_admg(rng, n, p=0.35, pb=0.3)
        graphs += 1
        law = admg_law(g, seed=graphs)
        base = K.Atom("p", tuple(sorted(g.random_vertices)))
        names = sorted(g.random_vertices)
        for size in (1, 2, 3):
            for s in combinations(names, size):
                seqs = []

                def walk(graph, remaining, prefix):
                    if len(seqs) >= 16:
                        return
                    if not remaining:
                        seqs.append(prefix)
                        return
                    for v in sorted(remaining):
                        if is_fixable_vertex(graph, v):
                            walk(graph.with_statuses(fixed=[v]),
                                 remaining - {v}, prefix + [v])

                walk(g, frozenset(s), [])
                if len(seqs) < 2:
                    continue
                results = [fix_sequence(g, base, seq) for seq in seqs]
                assert len({r.graph for r in results}) == 1
                tabs = [K.evaluate_numeric(r.kernel, law) for r in results]
                for t in tabs[1:]:
                    assert tabs[0].max_abs_diff(t) <= TOL
                seq_checked += len(seqs)
    dt = time.time() - t0
    report(6, f"50 mixed graphs, {seq_checked} sequences compared, graphs "
              f"exactly equal, kernels within {TOL:.0e}, {dt:.0f}s")


# -- 7: separation soundness ---------------------------------------------------

def test_criterion_7_separation_soundness():
    t0 = time.time()
    rng = np.random.default_rng(70)
    separated = 0
    for gi in range(50):
        g = random_dag(rng, int(rng.integers(3, 7)))
        names = sorted(g.vertex_names)
        for li in range(5):
            law = O.sample_dag_law(g, 2, seed=gi * 5 + li)
            for a, b in combinations(names, 2):
                rest = [v for v in names if v not in (a, b)]
                for k in range(len(rest) + 1):
                    for c in combinations(rest, k):
                        if m_separated(g, [a], [b], c):
                            gap = ci_check(law, [a], [b], c)
                            assert gap <= TOL, (g, a, b, c, gap)
                            separated += 1
    dt = time.time() - t0
    report(7, f"50 DAGs x 5 laws: {separated} separated triples all within "
              f"{TOL:.0e}, {dt:.0f}s")


# -- 8: the ancestral fast path ------------------------------------------------

def test_criterion_8_ancestral_fast_path():
    t0 = time.time()
    rng = np.random.default_rng(80)
    models = 0
    tried = 0
    while models < 25 and tried < 2000:
        tried += 1
        md = random_mddag(rng, int(rng.integers(2, 5)),
                          n_obs=int(rng.integers(0, 2)))
        if not ancestral_precondition(md):
            continue
        models += 1
        for r in md.sorted_indicators():
            sched = ancestral_schedule(md, r)
            ok, viol, plan = validate_schedule(md, sched)
            assert ok, (r, viol)
            fi = next(i for i, c in enumerate(sched.classes) if r in c)
            fast_q = plan.denominators[fi]
            slow = general_search(md, r)
            if slow.status != "identified":
                continue
            for s in range(3):
                full = O.sample_full_law(md, 2, seed=900 + s)
                obs = O.derive_observed_law(md, full)
                a = without_censored_rows(obs, K.evaluate_numeric(fast_q, obs))
                b = without_censored_rows(
                    obs, K.evaluate_numeric(slow.propensity, obs))
                rpar = md.graph.parents([r]) & md.indicators
                a = a.take({x: 1 for x in rpar if x in a.dims})
                b = b.take({x: 1 for x in rpar if x in b.dims})
                assert a.max_abs_diff(b) <= TOL, r
    assert models == 25
    dt = time.time() - t0
    report(8, f"25 models: fast-path schedules validate and match the "
              f"general search within {TOL:.0e}, {dt:.0f}s")
