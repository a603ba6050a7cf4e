import numpy as np
import pytest

from mdid.causal import (CausalError, InterventionQuery, g_formula,
                         identify_interventional)
from mdid.fixtures import load
from mdid.graph import Cadmg
from mdid import kernel as K
from mdid import oracle as O

from conftest import hidden_dag_for, random_admg, sum_out


def test_g_formula_examples():
    chain = Cadmg("AY", [("A", "Y")])
    q = InterventionQuery(frozenset({"Y"}), (("A", 0),))
    assert g_formula(chain, q) == K.restrict_values(
        K.Atom("p", ("Y",), ("A",)), {"A": 0})

    conf = Cadmg("ABY", [("B", "A"), ("A", "Y"), ("B", "Y")])
    got = g_formula(conf, InterventionQuery(frozenset({"Y"}), (("A", 1),)))
    want = K.marginalize(
        K.restrict_values(
            K.product([K.Atom("p", ("Y",), ("A", "B")), K.Atom("p", ("B",))]),
            {"A": 1}),
        ["B"])
    assert got == want
    # no treatments: the plain marginal
    assert g_formula(conf, InterventionQuery(frozenset({"Y"}), ())) == \
        K.Atom("p", ("Y",))

    with pytest.raises(CausalError):
        g_formula(load("confounded_chain"), q)


def test_g_formula_matches_enumeration():
    conf = Cadmg("ABY", [("B", "A"), ("A", "Y"), ("B", "Y")])
    q = InterventionQuery(frozenset({"Y"}), (("A", 1),))
    expr = g_formula(conf, q)
    for s in range(20):
        law = O.sample_dag_law(conf, 2, seed=s)
        truth = O.interventional_truth(conf, law, ["Y"], {"A": 1})
        got = K.evaluate_numeric(expr, law.dense(name="p"))
        assert truth.max_abs_diff(got) <= 1e-9


def test_confounded_chain_quotient():
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


def test_bow_not_identified():
    bow = Cadmg("AY", [("A", "Y")], [("A", "Y")])
    res = identify_interventional(
        bow, InterventionQuery(frozenset({"Y"}), (("A", 0),)))
    assert res.status == "not-identified"
    assert res.failing_district == {"Y"}


def test_bow_nonidentifiability_witnessed_by_two_laws():
    # two hidden-variable laws with identical observed margins but different
    # interventional distributions: take a confounded law, then rebuild a
    # confounder-free law with exactly the same margin
    from mdid.kernel import NamedTable
    bow = Cadmg("AY", [("A", "Y")], [("A", "Y")])
    big = hidden_dag_for(bow)
    u = next(v for v in big.vertex_names if v.startswith("U"))
    doms = {"A": (0, 1), "Y": (0, 1), u: (0, 1)}

    def lift(tab, dims):
        shape = tuple(2 for _ in dims)
        return NamedTable(dims, {d: doms[d] for d in dims},
                          np.broadcast_to(tab.aligned(dims, doms), shape).copy())

    found = False
    for s in range(50):
        l1 = O.sample_dag_law(big, 2, seed=s)
        m1 = l1.dense(["A", "Y"], name="p").table
        pa = sum_out(m1, ["Y"])
        py_given_a = NamedTable.join(m1, pa, np.divide)
        factors = (
            NamedTable((u,), {u: (0, 1)}, np.array([0.5, 0.5])),
            lift(pa, tuple(sorted(["A", u]))),
            lift(py_given_a, tuple(sorted(["A", "Y", u]))),
        )
        l2 = O.FactoredLaw("p", dict(doms), factors)
        m2 = l2.dense(["A", "Y"], name="p").table
        assert m1.max_abs_diff(m2) <= 1e-12
        t1 = O.interventional_truth(big, l1, ["Y"], {"A": 0})
        t2 = O.interventional_truth(big, l2, ["Y"], {"A": 0})
        if t1.max_abs_diff(t2) >= 1e-2:
            found = True
            break
    assert found


def test_dag_input_agrees_with_g_formula():
    conf = Cadmg("ABY", [("B", "A"), ("A", "Y"), ("B", "Y")])
    q = InterventionQuery(frozenset({"Y"}), (("A", 1),))
    assert identify_interventional(conf, q).expr == g_formula(conf, q)


def test_numeric_soundness_random_admgs():
    rng = np.random.default_rng(123)
    checked = 0
    for trial in range(120):
        g = random_admg(rng, int(rng.integers(3, 6)), pb=0.2)
        names = sorted(g.random_vertices)
        y = names[int(rng.integers(0, len(names)))]
        a = [v for v in names if v != y and rng.uniform() < 0.5]
        if not a:
            continue
        q = InterventionQuery(frozenset({y}), tuple((v, 0) for v in a))
        res = identify_interventional(g, q)
        if res.status != "identified":
            continue
        big = hidden_dag_for(g)
        law = O.sample_dag_law(big, 2, seed=trial)
        margin = law.dense(g.vertex_names, name="p")
        truth = O.interventional_truth(big, law, [y], {v: 0 for v in a})
        got = K.evaluate_numeric(res.expr, margin)
        assert truth.max_abs_diff(got) <= 1e-9, (g, y, a)
        checked += 1
    assert checked >= 30


@pytest.mark.parametrize("make,message", [
    (lambda: InterventionQuery(frozenset({"A", "Y"}), (("A", 1),)),
     r"^outcomes and treatments overlap$"),
    (lambda: g_formula(Cadmg("ABY", [("A", "Y"), ("B", "Y")], fixed=["B"]),
                       InterventionQuery(frozenset({"Y"}), (("B", 1),))),
     r"^query variable 'B' is not random$"),
    (lambda: identify_interventional(
        Cadmg("ABY", [("A", "Y"), ("B", "Y")], selected=["Y"]),
        InterventionQuery(frozenset({"Y"}), (("A", 1),))),
     r"^query variable 'Y' is not random$"),
])
def test_bad_queries_raise_causal_error(make, message):
    with pytest.raises(CausalError, match=message):
        make()
