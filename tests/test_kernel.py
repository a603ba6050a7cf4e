import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdid import kernel as K
from mdid.graph import Cadmg
from mdid import oracle as O

from conftest import random_dag


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


def test_condition_atom_and_identity():
    p = K.Atom("p", ("A", "B"))
    assert K.condition(p, ["A"]) == K.Atom("p", ("B",), ("A",))
    assert K.condition(p, []) is p
    with pytest.raises(K.ExprError):
        K.condition(K.Atom("p", ("A",), ("B",)), ["B"])


def test_restrict_values():
    p = K.Atom("p", ("R1", "X"))
    r = K.restrict_values(p, {"R1": 1})
    assert r == K.Restrict(p, (("R1", 1),))
    assert K.restrict_values(r, {"R1": 1}) == r          # idempotent
    with pytest.raises(K.ExprError):
        K.restrict_values(p, {"Z": 1})
    with pytest.raises(K.ExprError):
        K.restrict_values(r, {"R1": 0})                   # conflicting value


def test_fixing_algebra_produces_published_shapes():
    # chain with confounding: fix M, then B, then A
    p = K.Atom("p", ("A", "B", "M", "Y"))
    q1 = K.quotient(p, K.Atom("p", ("M",), ("B",)))
    assert q1 == K.product([K.Atom("p", ("A", "Y"), ("B", "M")),
                            K.Atom("p", ("B",))])
    q2 = K.quotient(q1, K.conditional_of(q1, ["B"], ["A", "Y"]))
    assert q2 == K.Marginal(q1, ("B",))
    den = K.conditional_of(q2, ["A"], [])
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
    for expr in [p, folded, K.restrict_values(folded, {"A": 0})]:
        back = K.canonicalize(K.parse(K.render(expr)))
        assert back == expr
    # conditionals are built as quotients; there is no conditional node
    with pytest.raises(K.ExprError):
        K.parse("(cond (atom p (A B) ()) (B))")


def test_normalization_of_kernels():
    law = law4(3)
    # arbitrary kernel built by fixing twice, then conditioning
    p = K.Atom("p", ("A", "B", "M", "Y"))
    q1 = K.quotient(p, K.Atom("p", ("M",), ("B",)))
    q2 = K.quotient(q1, K.conditional_of(q1, ["B"], ["A", "Y"]))
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
    # condition-then-marginalize consistency
    joint = K.Atom("p", ("A", "B", "M"))
    lhs = K.evaluate_numeric(K.conditional_of(joint, ["A"], ["B"]), law)
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
        elif move == 1:
            e = K.condition(e, [v])
        else:
            e = K.restrict_values(e, {v: int(rng.integers(0, 2))})
    back = K.canonicalize(K.parse(K.render(e)))
    assert back == e
