import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdid import kernel as K
from mdid.fixtures import FIXTURE_NAMES, load
from mdid.graph import Cadmg
from mdid.identify import identify_full, identify_target
from mdid.model import MdDag
from mdid import oracle as O

from conftest import random_dag, reference_elimination_marginal

MISSING_DATA_FIXTURES = [n for n in FIXTURE_NAMES if isinstance(load(n), MdDag)]


def law4(seed=0):
    g = Cadmg("ABMY", [("B", "M"), ("M", "A"), ("A", "Y")])
    return O.sample_dag_law(g, 2, seed).dense(name="p")


def test_marginalize_atom_and_identity():
    p = K.Atom("p", ("A", "B"))
    assert K.marginalize(p, ["B"]) == K.Atom("p", ("A",))
    e = K.Atom("p", ("A",), ("B",))
    assert K.marginalize(e, []) is e
    with pytest.raises(K.ExprError):
        K.marginalize(e, ["B"])        # context variable


def test_restrict_values():
    p = K.Atom("p", ("R1", "X"))
    r = K.restrict_values(p, {"R1": 1})
    assert r == K.Atom("p", ("R1", "X"), pins=(("R1", 1),))
    assert K.restrict_values(r, {"R1": 1}) == r          # idempotent
    with pytest.raises(K.ExprError):
        K.restrict_values(p, {"Z": 1})
    with pytest.raises(K.ExprError):
        K.restrict_values(r, {"R1": 0})                   # conflicting value
    with pytest.raises(K.ExprError, match="pins a variable it does not mention"):
        K.Atom("p", ("R1", "X"), pins=(("Z", 1),))


def test_fixing_algebra_produces_published_shapes():
    # chain with confounding: fix M, then B, then A
    p = K.Atom("p", ("A", "B", "M", "Y"))
    q1 = K.quotient(p, K.Atom("p", ("M",), ("B",)))
    assert q1 == K.product([K.Atom("p", ("A", "Y"), ("B", "M")),
                            K.Atom("p", ("B",))])
    # divide by q1(B | A, Y) = q1 / sum_B q1
    q2 = K.quotient(q1, K.quotient(q1, K.marginalize(q1, ["B"])))
    assert q2 == K.Marginal(q1, ("B",))
    den = K.marginalize(q2, ["Y"])
    expected_den = K.marginalize(
        K.product([K.Atom("p", ("A",), ("B", "M")), K.Atom("p", ("B",))]), ["B"])
    assert den == expected_den


def test_quotient_cancellation_and_chain_rule():
    a = K.Atom("p", ("A", "B"))
    b = K.Atom("p", ("B",))
    assert K.quotient(K.product([a, b]), b) == a
    assert K.quotient(a, a) == K.One()
    # p(A,B) / p(B) -> p(A | B)
    assert K.quotient(a, b) == K.Atom("p", ("A",), ("B",))
    # slice-consistent merge keeps the pin in context position
    num = K.restrict_values(K.Atom("p", ("R1", "X1", "R2")), {"R1": 1})
    den = K.restrict_values(K.Atom("p", ("R1", "X1")), {"R1": 1})
    got = K.quotient(num, den)
    assert got == K.restrict_values(K.Atom("p", ("R2",), ("R1", "X1")), {"R1": 1})


def test_render_and_parse_round_trip():
    p = K.Atom("p", ("B",))
    assert K.render(p) == "(atom p (B) ())"
    folded = K.marginalize(K.product([K.Atom("p", ("A", "Y"), ("B", "M")),
                                   K.Atom("p", ("B",))]), ["B"])
    assert K.render(folded, "latex") == r"\sum_{B} p(A,Y \mid B,M)\, p(B)"
    pinned = K.restrict_values(K.Atom("p", ("R2", "X2"), ("R1", "X1")), {"R1": 1, "X2": 0})
    assert K.render(pinned) == "(at (atom p (R2 X2) (R1 X1)) ((R1 1) (X2 0)))"
    assert K.render(pinned, "latex") == r"p(R2,X2=0 \mid R1=1,X1)"
    for expr in [p, folded, pinned, K.restrict_values(folded, {"A": 0})]:
        back = K.canonicalize(K.parse(K.render(expr)))
        assert back == expr
    # conditionals are built as quotients; there is no conditional node
    with pytest.raises(K.ExprError):
        K.parse("(cond (atom p (A B) ()) (B))")


def test_parse_round_trips_a_pinned_censored_atom():
    # a variable name may carry a parenthesized suffix, as X1(1) does
    atom = K.Atom("p", ("R1", "X1(1)"), ("X2(1)",), pins=(("R1", 1), ("X1(1)", 0)))
    assert K.render(atom) == "(at (atom p (R1 X1(1)) (X2(1))) ((R1 1) (X1(1) 0)))"
    assert K.parse(K.render(atom)) == atom
    assert K.parse(K.render(K.Atom("p", ("X1(1)",)))) == K.Atom("p", ("X1(1)",))


def test_parse_at_form_rejects_what_restrict_values_rejects():
    atom = K.Atom("p", ("A",))
    with pytest.raises(K.ExprError, match="cannot restrict unknown variable 'Z'"):
        K.restrict_values(atom, {"Z": 1})
    with pytest.raises(K.ExprError, match="cannot restrict unknown variable 'Z'"):
        K.parse("(at (atom p (A) ()) ((Z 1)))")
    with pytest.raises(K.ExprError, match="conflicting restriction for 'A'"):
        K.parse("(at (at (atom p (A) ()) ((A 0))) ((A 1)))")


@pytest.mark.parametrize("text", ["(atom p (A) ()", "(", "(prod (atom p (A) ())",
                                  "(at (atom p (A) ()) ((A 1)"])
def test_parse_rejects_unbalanced_input(text):
    with pytest.raises(K.ExprError, match="unbalanced"):
        K.parse(text)


@pytest.mark.parametrize("text", ["(at (atom p (A) ()) ((A)))", "(quot (one))",
                                  "(atom p AB ())", "(at (atom p (A) ()) ((A 1 2)))",
                                  "(one (one))", "(atom (p) (A) ())", "(atom p ((A)) ())",
                                  "(marg (atom p (A B) ()) B)", "(at (atom p (A) ()) (A 1))"])
def test_parse_rejects_malformed_forms(text):
    # a form of the wrong arity, or a name list that is no list of names,
    # raises instead of being misread
    with pytest.raises(K.ExprError):
        K.parse(text)


@pytest.mark.parametrize("name", MISSING_DATA_FIXTURES)
def test_emitted_expressions_parse_back_without_canonicalizing(name):
    # a pinned atom is one node, so the text of every emitted propensity and
    # functional reads back as the same tree
    md = load(name)
    target, full = identify_target(md), identify_full(md)
    exprs = [*target.propensities.values(), target.functional.expr,
             *full.propensities.values()]
    if full.functional is not None:
        exprs.append(full.functional.numerator)
    for e in exprs:
        assert K.parse(K.render(e)) == e


def test_normalization_of_kernels():
    law = law4(3)
    # arbitrary kernel built by fixing twice, then conditioning
    p = K.Atom("p", ("A", "B", "M", "Y"))
    q1 = K.quotient(p, K.Atom("p", ("M",), ("B",)))
    q2 = K.quotient(q1, K.quotient(q1, K.marginalize(q1, ["B"])))
    tab = K.evaluate_numeric(q2, law)
    # context M: every context slice sums to 1
    sums = tab.sum_out(["A", "Y"])
    assert np.allclose(sums.data, 1.0, atol=1e-9)


def test_algebraic_identities_numeric():
    law = law4(9)
    a = K.Atom("p", ("A", "M"), ("B",))
    b = K.Atom("p", ("B",))
    prod = K.product([a, b])
    again = K.evaluate_numeric(K.quotient(K.Product((a, b)), b), law)
    direct = K.evaluate_numeric(a, law)
    assert direct.max_abs_diff(again) <= 1e-12
    # condition-then-marginalize consistency: p(A, B) / p(B)
    joint = K.Atom("p", ("A", "B", "M"))
    lhs = K.evaluate_numeric(K.quotient(K.marginalize(joint, ["M"]),
                                        K.marginalize(joint, ["A", "M"])), law)
    pa = K.evaluate_numeric(K.Atom("p", ("A",), ("B",)), law)
    assert lhs.max_abs_diff(pa) <= 1e-12


def test_undefined_cells_are_marked_and_counted():
    # a law with a structural zero context: positive mass divided by zero
    g = Cadmg("AB", [("A", "B")])
    law = O.sample_dag_law(g, 2, 0).dense(name="p")
    bad = K.quotient(K.Atom("p", ("A",)), K.Atom("p", ("B",), ("A",)))
    tab = K.evaluate_numeric(bad, law)
    assert tab.undefined_count() == 0
    # force a zero: restrict a deterministic proxy-style table
    from mdid.model import md_dag
    md = md_dag([], ["X1"])
    full = O.sample_full_law(md, 2, 1)
    obs = O.derive_observed_law(md, full)
    cond = K.restrict_values(K.Atom("p", ("R1",), ("X1",)), {"X1": "?"})
    t = K.evaluate_numeric(cond, obs)
    # context X1="?" has positive mass; conditional defined, no markers
    assert t.undefined_count() == 0
    # but a conditional given an impossible context is all structural zeros
    z = K.restrict_values(K.Atom("p", ("X1",), ("R1",)), {"R1": 1, "X1": "?"})
    tz = K.evaluate_numeric(z, obs)
    assert float(tz.data) == 0.0
    # genuinely undefined: positive mass over an incompatible slice
    q = K.quotient(K.Atom("p", ("R1",)),
                   K.restrict_values(K.Atom("p", ("X1",)), {"X1": "?"}))
    law0 = O.derive_observed_law(md, O.sample_full_law(md, 2, 2))
    anomalous = K.quotient(
        K.restrict_values(K.Atom("p", ("R1", "X1")), {"X1": 0, "R1": 0}),
        K.restrict_values(K.Atom("p", ("R1", "X1")), {"X1": 0, "R1": 0}))
    # 0/0 cell collapses to a structural zero, not NaN
    t0 = K.evaluate_numeric(anomalous, law0)
    assert t0.undefined_count() == 0


def test_join_over_max_cells_raises():
    # 4097^2 cells is past MAX_CELLS = 2^24; the check runs before allocation
    a = K.NamedTable(("A",), {"A": tuple(range(4097))}, np.ones(4097))
    b = K.NamedTable(("B",), {"B": tuple(range(4097))}, np.ones(4097))
    with pytest.raises(K.ExprError, match=r"16785409 cells over \['A', 'B'\]"):
        K.NamedTable.join(a, b, np.multiply)


def test_pad_over_max_cells_raises_before_allocating():
    # 5000^2 cells is past MAX_CELLS = 2^24; the 200 MB pad is never made
    tab = K.NamedTable(("A", "B"), {"A": (0,), "B": (0,)}, np.ones((1, 1)))
    wide = {"A": tuple(range(5000)), "B": tuple(range(5000))}
    tracemalloc.start()
    try:
        with pytest.raises(K.ExprError, match=r"25000000 cells over \['A', 'B'\]"):
            tab.padded(wide)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()


def test_product_runs_over_the_intersection_of_domains():
    # a table is zero at the values its domain leaves out: b at A = 0
    a = K.NamedTable(("A",), {"A": (0, 1, "?")}, np.array([0.2, 0.3, 0.5]))
    b = K.NamedTable(("A", "B"), {"A": (1, "?"), "B": (0, 1)},
                     np.array([[1.0, 2.0], [3.0, 4.0]]))
    got = K.NamedTable.join(a, b, np.multiply)
    assert got.dims == ("A", "B") and got.domains == {"A": (1, "?"), "B": (0, 1)}
    np.testing.assert_allclose(got.data, [[0.3, 0.6], [1.5, 2.0]])
    padded = got.padded({"A": (0, 1, "?"), "B": (0, 1)})
    assert padded.domains == {"A": (0, 1, "?"), "B": (0, 1)}
    np.testing.assert_allclose(padded.data, [[0.0, 0.0], [0.3, 0.6], [1.5, 2.0]])


def test_quotient_reads_a_value_the_denominator_leaves_out_as_zero():
    num = K.NamedTable(("A", "B"), {"A": (0, 1, "?"), "B": (0, 1)},
                       np.array([[0.1, 0.0], [0.2, 0.3], [0.0, 0.0]]))
    den = K.NamedTable(("A",), {"A": (1, "?")}, np.array([0.5, 0.25]))
    got = K.NamedTable.join(num, den, np.divide)
    # the union of the domains: positive mass over the dropped A = 0 cell is
    # undefined, zero mass there stays a structural zero
    assert got.domains == {"A": (0, 1, "?"), "B": (0, 1)}
    np.testing.assert_allclose(got.data, [[np.nan, 0.0], [0.4, 0.6], [0.0, 0.0]])
    # a denominator value the numerator leaves out reads as zero mass over
    # the denominator: over NaN it stays NaN, else it is a structural zero
    num = K.NamedTable(("A",), {"A": (1,)}, np.array([0.5]))
    den = K.NamedTable(("A",), {"A": (0, 1, "?")}, np.array([np.nan, 0.25, 0.5]))
    got = K.NamedTable.join(num, den, np.divide)
    assert got.domains == {"A": (1, 0, "?")}
    np.testing.assert_allclose(got.data, [2.0, np.nan, 0.0])


def test_joins_with_equal_axes_and_different_domains_share_no_plan():
    a = K.NamedTable(("A",), {"A": (10, 11, 12)}, np.array([0.2, 0.3, 0.5]))
    b = K.NamedTable(("A",), {"A": (11, 12)}, np.array([2.0, 4.0]))
    c = K.NamedTable(("A",), {"A": (10, 11)}, np.array([2.0, 4.0]))
    bc = K.NamedTable.join(a, b, np.multiply), K.NamedTable.join(a, c, np.multiply)
    assert bc[0].domains == {"A": (11, 12)} and bc[1].domains == {"A": (10, 11)}
    np.testing.assert_array_equal(bc[0].data, [0.6, 2.0])
    np.testing.assert_array_equal(bc[1].data, [0.4, 1.2])
    # a quotient's domain is the union, wherever the denominator holds a NaN
    num = K.NamedTable(("A",), {"A": (11,)}, np.array([0.5]))
    nan = K.NamedTable(("A",), {"A": (10, 11)}, np.array([np.nan, 0.25]))
    finite = K.NamedTable(("A",), {"A": (10, 11)}, np.array([0.5, 0.25]))
    for den, cells in ((nan, [2.0, np.nan]), (finite, [2.0, 0.0])):
        got = K.NamedTable.join(num, den, np.divide)
        assert got.domains == {"A": (11, 10)}
        np.testing.assert_array_equal(got.data, cells)


def test_join_over_max_cells_raises_every_time():
    # a refused join raises each time, and a smaller join of the same axes runs
    a = K.NamedTable(("A",), {"A": tuple(range(4097))}, np.ones(4097))
    b = K.NamedTable(("B",), {"B": tuple(range(4097))}, np.ones(4097))
    for _ in range(2):
        with pytest.raises(K.ExprError, match=r"16785409 cells over \['A', 'B'\]"):
            K.NamedTable.join(a, b, np.multiply)
    small = K.NamedTable(("B",), {"B": (0, 1)}, np.ones(2))
    assert K.NamedTable.join(a, small, np.multiply).data.shape == (4097, 2)


def test_max_abs_diff_matches_cells_by_value():
    a = K.NamedTable(("X",), {"X": (0, 1)}, np.array([0.2, 0.8]))
    b = K.NamedTable(("X",), {"X": (1, 0)}, np.array([0.8, 0.2]))
    assert a.max_abs_diff(b) == 0.0 and b.max_abs_diff(a) == 0.0
    # an axis only one table has broadcasts
    c = K.NamedTable(("X", "Y"), {"X": (1, 0), "Y": (0, 1)},
                     np.array([[0.8, 0.8], [0.2, 0.2]]))
    assert a.max_abs_diff(c) == 0.0
    d = K.NamedTable(("X",), {"X": (0, 1, "?")}, np.array([0.2, 0.8, 0.0]))
    with pytest.raises(K.ExprError, match="axis 'X' has values"):
        a.max_abs_diff(d)


def narrowed_table() -> K.NamedTable:
    """p(A, B) on the support A in {0, 1} of the full domain (0, 1, "?")."""
    a = K.NamedTable(("A", "B"), {"A": (0, 1, "?"), "B": (0, 1)}, np.full((3, 2), 0.5))
    b = K.NamedTable(("A",), {"A": (0, 1)}, np.array([0.4, 0.6]))
    return K.NamedTable.join(a, b, np.multiply)


def test_take_outside_the_domain_raises():
    tab = narrowed_table()
    with pytest.raises(K.ExprError, match="value 2 outside the domain of 'A'"):
        tab.take({"A": 2})


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_random_kernel_pipelines_round_trip(seed):
    rng = np.random.default_rng(seed)
    g = random_dag(rng, 4, prefix="W")
    names = sorted(g.vertex_names)
    e = K.Atom("p", tuple(names))
    for _ in range(3):
        free = sorted(e.free())
        if not free:
            break
        move = rng.integers(0, 3)
        v = free[int(rng.integers(0, len(free)))]
        if move == 0:
            e = K.marginalize(e, [v])
        elif move == 1:         # condition on v
            e = K.quotient(e, K.marginalize(e, sorted(e.free() - {v})))
        else:
            e = K.restrict_values(e, {v: int(rng.integers(0, 2))})
    back = K.canonicalize(K.parse(K.render(e)))
    assert back == e


def assert_same_cells(got: K.NamedTable, want: K.NamedTable) -> None:
    assert got.dims == want.dims
    assert np.array_equal(np.isnan(got.data), np.isnan(want.data))
    assert np.array_equal(got.data == 0, want.data == 0)
    assert got.max_abs_diff(want) <= 1e-12


def law_of(tables, variables=None) -> O.FactoredLaw:
    """The law whose factors are the tables, none headed, over their axes'
    domains unless variables are given."""
    if variables is None:
        variables = {d: t.domains[d] for t in tables for d in t.dims}
    return O.FactoredLaw("p", dict(variables), tuple(tables))


def check_contract(law, keep, ev):
    # sliced at the support of their zero pattern, the factors contract to
    # the same cells once the result is padded back to the full domains
    want = reference_elimination_marginal([t.take(ev) for t in law.factors],
                                          frozenset(keep) - set(ev))
    got = law.on_support(keep, ev)
    assert all(set(got.domains[d]) <= set(want.domains[d]) for d in got.dims)
    assert_same_cells(got.padded(want.domains), want)


@st.composite
def factor_sets(draw):
    """A law of up to five tables over five variables whose domains may be
    of size one or carry "?", with zero-heavy cells; scalars included."""
    names = "ABCDE"
    doms = {v: draw(st.sampled_from([(0,), (0, 1), (0, 1, "?"), (0, 1, 2)])) for v in names}
    tables = []
    for _ in range(draw(st.integers(0, 5))):
        dims = tuple(sorted(draw(st.sets(st.sampled_from(names), max_size=3))))
        shape = tuple(len(doms[d]) for d in dims)
        cells = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.3, 0.7, 1.0]),
                              min_size=math.prod(shape), max_size=math.prod(shape)))
        tables.append(K.NamedTable(dims, {d: doms[d] for d in dims},
                                   np.array(cells).reshape(shape)))
    keep = draw(st.sets(st.sampled_from(names)))
    pinned = draw(st.sets(st.sampled_from(names), max_size=3))
    return law_of(tables, doms), keep, {v: draw(st.sampled_from(doms[v])) for v in pinned}


@settings(max_examples=200, deadline=None)
@given(case=factor_sets())
def test_contract_matches_pairwise_join_elimination(case):
    # the marginal over the full domains is the reference's table as it
    # stands: same axes, same domains, no padding on the caller's side
    law, keep, ev = case
    want = reference_elimination_marginal([t.take(ev) for t in law.factors],
                                          frozenset(keep) - set(ev))
    got = law.marginal(keep, ev)
    assert {d: got.domains[d] for d in got.dims} == {d: want.domains[d] for d in want.dims}
    assert_same_cells(got, want)


@settings(max_examples=200, deadline=None)
@given(case=factor_sets())
def test_contract_on_the_support_matches_pairwise_join_elimination(case):
    check_contract(*case)


def test_support_shrinks_to_a_fixed_point():
    # C = 0 rules out B = 1 in the second table, and then B = 0 rules out
    # A = 1 in the first, which a single pass over the tables misses
    ab = K.NamedTable(("A", "B"), {"A": (0, 1), "B": (0, 1)},
                      np.array([[0.5, 0.5], [0.0, 0.5]]))
    bc = K.NamedTable(("B", "C"), {"B": (0, 1), "C": (0, 1)},
                      np.array([[0.5, 0.5], [0.0, 1.0]]))
    got = law_of([ab, bc]).on_support(["A"], {"C": 0})
    assert got.domains == {"A": (0,)}
    np.testing.assert_allclose(got.padded({"A": (0, 1)}).data, [0.25, 0.0])


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_contract_matches_pairwise_join_elimination_on_fixture_laws(data):
    md = load(data.draw(st.sampled_from(MISSING_DATA_FIXTURES)))
    law = O.sample_full_law(md, 2, data.draw(st.integers(0, 1000)))
    names = sorted(law.variables)
    keep = data.draw(st.sets(st.sampled_from(names), max_size=5))
    pinned = data.draw(st.sets(st.sampled_from(names), max_size=4))
    check_contract(law, keep, {v: data.draw(st.sampled_from(law.variables[v])) for v in pinned})


@st.composite
def dag_laws_with_barren_tables(draw):
    """A law of a random DAG, some of its CPT rows deterministic, with keep
    and evidence sets drawn from its vertices; often a vertex downstream of
    both is barren."""
    seed = draw(st.integers(0, 10_000))
    g = random_dag(np.random.default_rng(seed), draw(st.integers(2, 7)))
    law = O.sample_dag_law(g, draw(st.sampled_from([2, 3])), seed)
    factors = list(law.factors)
    for pos in draw(st.sets(st.integers(0, len(factors) - 1), max_size=2)):
        f, head = factors[pos], law.heads[pos]
        rows = np.moveaxis(f.data, f.axis(head), -1).copy()
        flat = rows.reshape(-1, rows.shape[-1])
        for r in draw(st.sets(st.integers(0, len(flat) - 1), min_size=1)):
            flat[r] = np.eye(len(flat[r]))[draw(st.integers(0, len(flat[r]) - 1))]
        factors[pos] = K.NamedTable(f.dims, f.domains,
                                    np.moveaxis(flat.reshape(rows.shape), -1, f.axis(head)))
    law = O.FactoredLaw(law.name, law.variables, tuple(factors), law.heads)
    names = sorted(law.variables)
    keep = draw(st.sets(st.sampled_from(names), max_size=3))
    pinned = draw(st.sets(st.sampled_from(names), max_size=2))
    return law, keep, {v: draw(st.sampled_from(law.variables[v])) for v in pinned}


@settings(max_examples=150, deadline=None)
@given(case=dag_laws_with_barren_tables())
def test_contract_without_barren_tables_matches_pairwise_join_elimination(case):
    # a CPT whose child is neither kept nor evidence and feeds no table left
    # sums to 1 over the child, so leaving it out changes no axis, domain or
    # zero cell, and no cell by more than rounding
    law, keep, ev = case
    got = law.on_support(keep, ev)
    every = law_of(law.factors, law.variables).on_support(keep, ev)
    assert got.dims == every.dims and got.domains == every.domains
    want = reference_elimination_marginal([t.take(ev) for t in law.factors],
                                          frozenset(keep) - set(ev))
    padded = got.padded(want.domains)
    assert padded.dims == want.dims
    assert np.array_equal(padded.data == 0, want.data == 0)
    assert np.all(np.abs(padded.data - want.data) <= 1e-12)


def test_contract_leaves_out_tables_that_become_barren():
    # keeping A: D's CPT is barren, then C's, then B's, while a CPT whose
    # child another table spans, or whose child is evidence, is kept
    chain = Cadmg("ABCD", [("A", "B"), ("B", "C"), ("C", "D")])
    law = O.sample_dag_law(chain, 2, 0)
    axes, zeros, heads = law._pattern

    def sliced(keep, evidence=()):
        plan = K._contraction_plan(law._pattern, frozenset(keep), evidence)
        return sorted(heads[key[0]] for key in plan.keys if not isinstance(key[0], K._Step))

    assert sliced("A") == ["A"]
    assert sliced("B") == ["A", "B"]
    assert sliced("A", (("C", 1),)) == ["A", "B", "C"]
    assert sliced("AD") == ["A", "B", "C", "D"]
    # without heads, nothing is barren
    plan = K._contraction_plan((axes, zeros, (None,) * 4), frozenset("A"), ())
    assert len([key for key in plan.keys if not isinstance(key[0], K._Step)]) == 4


def test_second_law_of_a_model_adds_no_plan_misses():
    md = load("joint_quartet")
    functional = identify_target(md).functional

    def evaluate(seed):
        full = O.sample_full_law(md, 2, seed)
        functional.evaluate(O.derive_observed_law(md, full))
        O.target_law(md, full)

    evaluate(0)
    misses = K._contraction_plan.cache_info().misses
    evaluate(1)
    assert K._contraction_plan.cache_info().misses == misses


def test_contraction_step_over_max_cells_raises_at_plan_time():
    # the tables hold no cells: the plan refuses the step before any is read
    def axes(*names, n):
        return K.NamedTable(names, {v: tuple(range(n)) for v in names}, np.empty(0))

    # eliminating B multiplies A, B and C: the table the join chain refused
    with pytest.raises(K.ExprError, match=r"27000000 cells over \['A', 'B', 'C'\]"):
        law_of([axes("A", "B", n=300), axes("B", "C", n=300)]).on_support(["A", "C"])
    with pytest.raises(K.ExprError, match=r"16785409 cells over \['A', 'B'\]"):
        law_of([axes("A", n=4097), axes("B", n=4097)]).on_support(["A", "B"])


def test_tables_over_max_axes_raise_at_plan_time():
    def units(names, data):
        return K.NamedTable(tuple(names), {v: (0,) for v in names}, data)

    names = [f"V{i:02d}" for i in range(K.MAX_AXES + 1)]
    # 32 one-cell axes still contract and join
    tab = law_of([units([v], np.full(1, 0.5)) for v in names[:32]]).on_support(names[:32])
    assert tab.data.shape == (1,) * 32 and tab.data.item() == 0.5 ** 32
    tab = K.NamedTable.join(units(names[:17], np.full((1,) * 17, 0.5)),
                            units(names[16:32], np.full((1,) * 16, 0.5)), np.multiply)
    assert tab.dims == tuple(names[:32]) and tab.data.item() == 0.25
    # 33 are refused before any cell is read
    with pytest.raises(K.ExprError, match="33 axes exceeds MAX_AXES = 32"):
        law_of([units([v], np.empty(0)) for v in names]).on_support(names)
    with pytest.raises(K.ExprError, match="33 axes exceeds MAX_AXES = 32"):
        K.NamedTable.join(units(names[:17], np.empty(0)), units(names[16:], np.empty(0)),
                          np.multiply)


def test_contract_folds_many_operands_in_pairs():
    # a step folds its operands in pairs, each one np.matmul
    scalars = [K.NamedTable((), {}, np.asarray(1.5)) for _ in range(70)]
    assert law_of(scalars).on_support([]).data.item() == pytest.approx(1.5 ** 70, rel=1e-12)


@pytest.fixture
def step_runs(monkeypatch):
    """The result of every contraction step run during the test: the plan
    and program caches are emptied, so that every step is bound afresh
    through a counting wrapper, which carries its step as ``.step``."""
    runs = []
    bind = K._Step.bind

    def counted(step, inputs):
        call = bind(step, inputs)

        def run(regs, tables):
            runs.append(call(regs, tables))
            return runs[-1]
        run.step = step
        return run

    monkeypatch.setattr(K._Step, "bind", counted)
    K._contraction_plan.cache_clear()
    K._program.cache_clear()
    yield runs
    # no cached plan keeps a wrapper past the test
    K._contraction_plan.cache_clear()
    K._program.cache_clear()


def test_atoms_that_share_a_step_compile_it_once(step_runs):
    # A, then B, is eliminated first for both marginals of the chain, and
    # p(C) leaves out the barren CPT of D
    chain = Cadmg("ABCD", [("A", "B"), ("B", "C"), ("C", "D")])
    law = O.sample_dag_law(chain, 2, 0)
    e = K.Product((K.Atom("p", ("D",)), K.Atom("p", ("C",))))
    alone = [law.on_support([v]) for v in "DC"]
    separate = len(step_runs)
    assert separate == 5
    step_runs.clear()
    got = K.evaluate_numeric(e, law)
    program = K._program(e, law.name, tuple(law.variables.items()), law._pattern)
    compiled = sum(hasattr(op, "step") for op in program.ops)
    assert len(step_runs) == compiled == separate - 2
    assert np.array_equal(got.data, K.NamedTable.join(*alone, np.multiply).data)
    # a replay on another law runs exactly the steps the program holds
    step_runs.clear()
    K.evaluate_numeric(e, O.sample_dag_law(chain, 2, 1))
    assert len(step_runs) == compiled


def test_shared_tables_are_read_only():
    law = O.sample_dag_law(Cadmg("ABC", [("A", "B"), ("B", "C")]), 2, 0)
    tab = law.on_support({"A", "C"})
    with pytest.raises(ValueError, match="read-only"):
        tab.data[0, 0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        law.on_support({"A", "B", "C"}, {"B": 1}).data[...] = 0.0
    # the law's own factors stay as they were
    assert all(f.data.flags.writeable for f in law.factors)
    # an evaluated table can be a view of a factor: on every run of its
    # program it refuses a write, and the factor stays writable and unchanged
    factor = K.NamedTable(("A", "B"), {"A": (0, 1), "B": (0, 1)},
                          np.array([[0.1, 0.2], [0.3, 0.4]]))
    one = O.FactoredLaw("p", dict(factor.domains), (factor,))
    for _ in range(2):
        got = K.evaluate_numeric(K.Atom("p", ("A", "B")), one)
        assert np.shares_memory(got.data, factor.data)
        with pytest.raises(ValueError, match="read-only"):
            got.data[0, 0] = 0.5
    assert factor.data.flags.writeable and factor.data[0, 0] == 0.1
