import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from itertools import combinations

from mdid.fixtures import load
from mdid.graph import Cadmg, GraphError
from mdid.projection import latent_project_out
from mdid.separation import m_separated
from mdid import oracle as O

from conftest import ci_check, random_admg, random_dag


def eliminate(g, h):
    """Reference: project out one random vertex h.  Adds a -> b for every
    parent a and child b of h, b <-> b' for every pair of children, and
    s <-> b for every bidirected neighbor s and child b of h."""
    pa, ch, sib = g.parents([h]), g.children([h]), g.siblings([h])
    directed = set(g.directed_edges) | {(a, b) for a in pa for b in ch}
    bidirected = set(g.bidirected_edges) | set(combinations(sorted(ch), 2))
    bidirected |= {(s, b) for s in sib for b in ch if s != b}
    keep = [v for v in g.vertex_names if v != h]
    return Cadmg(keep, [e for e in directed if h not in e],
                 [e for e in bidirected if h not in e],
                 g.fixed_vertices, g.selected_vertices)


def project_by_elimination(g, hide):
    for h in sorted(hide):
        g = eliminate(g, h)
    return g


def test_latent_trio_projection():
    md = load("latent_trio")
    g = latent_project_out(md.graph, ["X1(1)"])
    assert ("R2", "X1") in g.bidirected_edges
    assert "X1(1)" not in g
    # everything else kept
    assert ("X2(1)", "R1") in g.directed_edges
    # the proxy joins its indicator-side collider district
    assert g.district("X1") == {"R2", "X1"}


def test_joint_quartet_projection_matches_expected_edges():
    md = load("joint_quartet")
    g = latent_project_out(md.graph, ["X2(1)", "X4(1)"])
    for pair in [("R1", "R3"), ("R1", "X4"), ("R3", "X4"), ("R1", "X2")]:
        assert tuple(sorted(pair)) in g.bidirected_edges
    # directed path through the hidden vertex becomes a direct edge
    assert ("X3(1)", "X2") in g.directed_edges
    assert ("X3(1)", "R1") in g.directed_edges


def test_identity_and_errors():
    md = load("latent_trio")
    assert latent_project_out(md.graph, ()) == md.graph
    g = md.graph.with_statuses(fixed=["R1"])
    with pytest.raises(GraphError):
        latent_project_out(g, ["R1"])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 9))
def test_one_pass_projection_matches_elimination(seed, n):
    rng = np.random.default_rng(seed)
    g = random_admg(rng, n)
    # fix or select some vertices first, as a subproblem does
    names = list(g.vertex_names)
    fixed = [v for v in names if rng.uniform() < 0.15]
    selected = [v for v in names if v not in fixed and rng.uniform() < 0.15]
    g = g.with_statuses(fixed=fixed, selected=selected)
    hidden = [v for v in sorted(g.random_vertices) if rng.uniform() < 0.5]
    proj = latent_project_out(g, hidden)
    assert proj == project_by_elimination(g, hidden)
    assert proj.fixed_vertices == g.fixed_vertices
    assert proj.selected_vertices == g.selected_vertices


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(3, 8))
def test_composition(seed, n):
    rng = np.random.default_rng(seed)
    g = random_admg(rng, n)
    hidden = [v for v in g.vertex_names if rng.uniform() < 0.4]
    if len(hidden) < 2:
        return
    h1, h2 = hidden[: len(hidden) // 2], hidden[len(hidden) // 2:]
    once = latent_project_out(g, hidden)
    twice = latent_project_out(latent_project_out(g, h1), h2)
    assert once == twice


def test_markov_soundness_of_projection():
    # every separation visible in the projection holds numerically in the
    # marginal law over the kept vertices
    rng = np.random.default_rng(11)
    for trial in range(20):
        g = random_dag(rng, int(rng.integers(4, 8)))
        keep = [v for v in g.vertex_names if rng.uniform() < 0.7]
        if len(keep) < 3:
            continue
        proj = latent_project_out(g, g.random_vertices - set(keep))
        law = O.sample_dag_law(g, 2, seed=int(rng.integers(1_000_000)))
        margin = law.dense(keep, name="p")
        names = sorted(proj.random_vertices)
        a, b = names[0], names[1]
        rest = names[2:]
        for k in range(len(rest) + 1):
            for c in combinations(rest, k):
                if m_separated(proj, [a], [b], c):
                    assert ci_check(margin, [a], [b], c) <= 1e-9
