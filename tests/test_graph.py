import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdid.causal import InterventionQuery, g_formula, identify_interventional
from mdid.fixing import is_fixable_vertex
from mdid.fixtures import load
from mdid.graph import Cadmg, GraphError
from mdid.projection import latent_project_out
from mdid.separation import m_separated

from conftest import random_admg


def test_status_invariants():
    with pytest.raises(GraphError, match="both fixed and selected"):
        Cadmg("AB", fixed=["A"], selected=["A"])
    with pytest.raises(GraphError, match="not vertices"):
        Cadmg("AB", fixed=["C"])
    with pytest.raises(GraphError, match="not vertices"):
        Cadmg("AB", selected=["C"])
    with pytest.raises(GraphError, match="into fixed vertex 'A'"):
        Cadmg("AB", [("B", "A")], fixed=["A"])
    with pytest.raises(GraphError, match="at fixed vertex 'A'"):
        Cadmg("AB", [], [("A", "B")], fixed=["A"])


def test_graph_invariants():
    with pytest.raises(GraphError):
        Cadmg("AB", [("A", "B"), ("B", "A")])       # cycle
    with pytest.raises(GraphError):
        Cadmg("AB", [("A", "A")])                    # self loop
    with pytest.raises(GraphError):
        Cadmg("AB", [("A", "C")])                    # unknown endpoint
    with pytest.raises(GraphError):
        Cadmg("AA")                                  # duplicate name


@pytest.mark.parametrize("call", [
    lambda g: is_fixable_vertex(g, "nope"),
    lambda g: latent_project_out(g, ["nope"]),
    lambda g: m_separated(g, ["A"], ["nope"]),
    lambda g: g.district("nope"),
    lambda g: g_formula(g, InterventionQuery(frozenset({"nope"}), (("A", 0),))),
    lambda g: identify_interventional(
        g, InterventionQuery(frozenset({"Y"}), (("nope", 0),))),
], ids=["is_fixable_vertex", "latent_project_out", "m_separated", "district",
        "g_formula", "identify_interventional"])
def test_unknown_names_raise_graph_error(call):
    g = Cadmg("AY", [("A", "Y")])
    with pytest.raises(GraphError, match="unknown vertex 'nope'"):
        call(g)


def test_with_statuses_gives_fixed_precedence():
    g = Cadmg("ABC", [("A", "B"), ("B", "C")], [("A", "C")])
    h = g.with_statuses(fixed=["B"], selected=["B", "C"])
    assert h.fixed_vertices == {"B"}
    assert h.selected_vertices == {"C"}
    assert h.random_vertices == {"A"}
    assert h.directed_edges == {("B", "C")}     # the arrowhead into B is gone
    # a later call re-statuses on top of the earlier ones
    k = h.with_statuses(fixed=["C"])
    assert (k.fixed_vertices, k.selected_vertices) == ({"B", "C"}, frozenset())
    assert not k.bidirected_edges


def test_transforms_keep_the_status_sets():
    g = Cadmg("ABCD", [("A", "B"), ("B", "C"), ("C", "D")],
              fixed=["A"], selected=["D"])
    sub = g.induced_subgraph(["A", "B", "D"])
    assert (sub.fixed_vertices, sub.selected_vertices) == ({"A"}, {"D"})
    assert g.induced_subgraph(["B", "C"]).random_vertices == {"B", "C"}
    proj = latent_project_out(g, ["C"])
    assert (proj.fixed_vertices, proj.selected_vertices) == ({"A"}, {"D"})
    assert proj.directed_edges == {("A", "B"), ("B", "D")}


def test_equal_parts_in_any_order_compare_and_hash_equal():
    one = Cadmg("ABCD", [("A", "B"), ("C", "D")], [("B", "D")],
                fixed=["A"], selected=["C", "D"])
    two = Cadmg("DCBA", [("C", "D"), ("A", "B")], [("D", "B")],
                fixed=("A",), selected={"D", "C"})
    assert one == two and hash(one) == hash(two)
    assert one != Cadmg("ABCD", [("A", "B"), ("C", "D")], [("B", "D")],
                        fixed=["A"], selected=["C"])
    assert one != Cadmg("ABCD", [("A", "B"), ("C", "D")], [("B", "D")],
                        selected=["A", "C", "D"])


def test_genealogy_on_staggered_trio():
    md = load("staggered_trio")
    g = md.graph
    assert g.parents(["R2"]) == {"X1(1)", "R3"}
    assert g.descendants([]) == frozenset()
    with pytest.raises(GraphError):
        g.parents(["nope"])


def test_descendants_districts_blanket_joint_quartet_projection():
    md = load("joint_quartet")
    g = latent_project_out(md.graph, ["X2(1)", "X4(1)"])
    assert g.descendants(["R1", "R3"]) == {"R1", "R3", "X1", "X3"}
    assert g.district("R1") == {"R1", "R3", "X2", "X4"}
    assert g.markov_blanket(["R1", "R3"]) == {"R2", "R4", "X2", "X3(1)", "X4"}
    split = [d for d in g.districts() if len(d) > 1]
    assert split == [frozenset({"R1", "R3", "X2", "X4"})]


def test_markov_blanket_singletons():
    md = load("block_sequential")
    assert md.graph.markov_blanket(["R1"]) == frozenset()   # no parents
    iso = Cadmg("ABC", [("A", "B")])
    assert iso.markov_blanket(["C"]) == frozenset()


def test_markov_blanket_rejects_cross_district_sets():
    g = Cadmg("ABCD", [], [("A", "B"), ("C", "D")])
    with pytest.raises(GraphError):
        g.markov_blanket(["A", "C"])


def test_districts_partition_dag_singletons():
    md = load("block_sequential")
    ds = md.graph.districts()
    assert all(len(d) == 1 for d in ds)
    union = set().union(*ds)
    assert union == set(md.graph.random_vertices)


def test_induced_subgraph():
    md = load("joint_quartet")
    g = latent_project_out(md.graph, ["X2(1)", "X4(1)"])
    sub = g.induced_subgraph(["R1", "R3"])
    assert sub.bidirected_edges == {("R1", "R3")}
    assert sub.directed_edges == {("R3", "R1")}
    assert g.induced_subgraph(g.vertex_names) == g
    assert g.induced_subgraph([]).vertex_names == ()


def test_topological_order():
    chain = Cadmg("BMAY", [("B", "M"), ("M", "A"), ("A", "Y")])
    assert chain.topological_order() == ("B", "M", "A", "Y")
    chainmix = load("confounded_chain")
    assert chainmix.topological_order() == ("B", "M", "A", "Y")
    two = Cadmg("BA")
    assert two.topological_order() == ("A", "B")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
def test_district_partition_and_topo_order_properties(seed, n):
    g = random_admg(np.random.default_rng(seed), n)
    ds = g.districts()
    seen = set()
    for d in ds:
        assert not (seen & d)
        seen |= d
    assert seen == set(g.random_vertices)
    for v in g.random_vertices:
        assert v in g.district(v)
    order = g.topological_order()
    assert sorted(order) == sorted(g.vertex_names)
    pos = {v: i for i, v in enumerate(order)}
    for a, b in g.directed_edges:
        assert pos[a] < pos[b]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
def test_induced_subgraph_idempotent(seed, n):
    rng = np.random.default_rng(seed)
    g = random_admg(rng, n)
    keep = [v for v in g.vertex_names if rng.uniform() < 0.6]
    once = g.induced_subgraph(keep)
    assert once.induced_subgraph(keep) == once


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 7))
def test_markov_blanket_licenses_separation(seed, n):
    # the blanket computed among a vertex's non-descendants m-separates it
    # from the rest of them; for fixable vertices the full-graph blanket
    # coincides with that set, which is the only way fixing uses it
    g = random_admg(np.random.default_rng(seed), n)
    for v in g.random_vertices:
        nondesc = frozenset(g.vertex_names) - g.descendants([v])
        upper = g.induced_subgraph(nondesc | {v})
        mb = upper.markov_blanket([v])
        others = nondesc - mb - {v}
        if others:
            assert m_separated(g, [v], others, mb)
        if is_fixable_vertex(g, v):
            assert g.markov_blanket([v]) == mb
