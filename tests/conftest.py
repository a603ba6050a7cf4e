"""Shared helpers: random graph generators, a brute-force path-enumeration
separation check, a numeric conditional-independence check, a pairwise-join
variable elimination, law builders for comparisons against the fast
code, a table summed over some of its axes, and a marginal made as a
program makes it from tables computed alone."""

from __future__ import annotations

from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from mdid.graph import Cadmg
from mdid.identify import identify_indicator
from mdid import kernel as K
from mdid.kernel import NamedTable
from mdid.model import MdDag, Triple, validate_md_dag
from mdid import oracle as O


def random_dag(rng: np.random.Generator, n: int, p: float = 0.4,
               prefix: str = "V") -> Cadmg:
    names = [f"{prefix}{i}" for i in range(n)]
    edges = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
             if rng.uniform() < p]
    return Cadmg(names, edges)


def random_admg(rng: np.random.Generator, n: int, p: float = 0.35,
                pb: float = 0.25, prefix: str = "V") -> Cadmg:
    names = [f"{prefix}{i}" for i in range(n)]
    di = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)
          if rng.uniform() < p]
    bi = [(a, b) for a, b in combinations(names, 2) if rng.uniform() < pb]
    return Cadmg(names, di, bi)


def hidden_dag_for(admg: Cadmg) -> Cadmg:
    """Materialize each bidirected edge as an explicit confounder vertex."""
    names = list(admg.vertex_names)
    edges = list(admg.directed_edges)
    for a, b in sorted(admg.bidirected_edges):
        u = f"U_{a}_{b}"
        names.append(u)
        edges += [(u, a), (u, b)]
    return Cadmg(names, edges)


def admg_law(admg: Cadmg, seed: int, cardinality: int = 2):
    """A law over the ADMG's vertices obtained by marginalizing a random
    strictly positive law on the explicit-confounder DAG."""
    big = hidden_dag_for(admg)
    law = O.sample_dag_law(big, cardinality, seed)
    return law.dense(admg.vertex_names, name="p")


def random_mddag(rng: np.random.Generator, k: int, n_obs: int = 0,
                 p: float = 0.4, allow_self_censoring: bool = False) -> MdDag:
    """Random model respecting the structural constraints: substantive
    variables upstream, indicators with substantive and indicator parents."""
    triples = [Triple(f"X{i}(1)", f"R{i}", f"X{i}") for i in range(1, k + 1)]
    obs = [f"O{i}" for i in range(1, n_obs + 1)]
    substantive = [t.truth for t in triples] + obs
    order = list(substantive)
    rng.shuffle(order)
    edges = []
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            if rng.uniform() < p:
                edges.append((order[i], order[j]))
    for i, t in enumerate(triples):
        for s in substantive:
            if s == t.truth and not allow_self_censoring:
                continue
            if rng.uniform() < p:
                edges.append((s, t.indicator))
        for t2 in triples[:i]:
            if rng.uniform() < p * 0.8:
                edges.append((t2.indicator, t.indicator))
    for t in triples:
        edges += [(t.indicator, t.proxy), (t.truth, t.proxy)]
    names = substantive + [t.indicator for t in triples] + [t.proxy for t in triples]
    return validate_md_dag(Cadmg(names, edges), triples, obs)


def general_search(md: MdDag, indicator: str, budget=None):
    """identify_indicator with the ancestral fast path switched off, so the
    general schedule search runs even on a model where the fast path
    applies."""
    with mock.patch("mdid.identify.ancestral_precondition", return_value=False):
        return identify_indicator(md, indicator, budget)


def sum_out(tab: NamedTable, names) -> NamedTable:
    """The table summed over those of names that are its axes."""
    names = [n for n in names if n in tab.dims]
    if not names:
        return tab
    keep = tuple(d for d in tab.dims if d not in names)
    return NamedTable(keep, {d: tab.domains[d] for d in keep},
                      tab.data.sum(axis=tuple(tab.axis(n) for n in names)))


def ci_check(law: O.FactoredLaw, a, b, c=()) -> float:
    """Max over cells of |p(a,b|c) - p(a|c) p(b|c)|; cells with zero context
    mass are skipped."""
    A, B, C = frozenset(a), frozenset(b), frozenset(c)
    if A & B or A & C or B & C:
        raise O.OracleError("ci_check requires disjoint variable sets")
    joint = law.marginal(A | B | C)
    pc = sum_out(joint, A | B)
    pabc = NamedTable.join(joint, pc, np.divide)
    pac = NamedTable.join(sum_out(joint, B), pc, np.divide)
    pbc = NamedTable.join(sum_out(joint, A), pc, np.divide)
    prod = NamedTable.join(pac, pbc, np.multiply)
    return pabc.max_abs_diff(prod)


def reference_elimination_marginal(factors, keep) -> NamedTable:
    """Multiply the factor list and sum out everything outside keep, greedily
    eliminating the variable whose combined factor spans the fewest axes,
    with one ``NamedTable.join`` per pair of factors."""
    work = list(factors)
    if not work:
        return NamedTable((), {}, np.asarray(1.0))
    if len(work) == 1:          # a dense law: one sum over all dropped axes
        return sum_out(work[0], set(work[0].dims) - keep)
    all_vars: set[str] = set()
    for f in work:
        all_vars |= set(f.dims)
    elim = all_vars - keep
    while elim:
        best = None
        for v in sorted(elim):
            involved = [f for f in work if v in f.dims]
            dims = set()
            for f in involved:
                dims |= set(f.dims)
            cost = len(dims)
            if best is None or cost < best[0]:
                best = (cost, v, involved)
        _, v, involved = best
        rest = [f for f in work if v not in f.dims]
        prod = involved[0]
        for f in involved[1:]:
            prod = NamedTable.join(prod, f, np.multiply)
        work = rest + [sum_out(prod, [v])]
        elim.discard(v)
    out = work[0]
    for f in work[1:]:
        out = NamedTable.join(out, f, np.multiply)
    return sum_out(out, set(out.dims) - keep)


# -- brute force m-separation by path enumeration ---------------------------


def _edges_at(g: Cadmg, v: str):
    for c in g.children([v]):
        yield c, False, True
    for p in g.parents([v]):
        yield p, True, False
    for s in g.siblings([v]):
        yield s, True, True


def brute_force_separated(g: Cadmg, a, b, c) -> bool:
    """Enumerate simple paths; a path is open when every collider has a
    descendant in the conditioning set and every non-collider avoids it."""
    A, B = frozenset(a), frozenset(b)
    cond = frozenset(c) | (g.selected_vertices - A - B) | (g.fixed_vertices - A - B)
    an_cond = g.ancestors(cond) if cond else frozenset()

    def dfs(v, arrived_head, visited):
        # enumerate simple paths; v is an intermediate vertex with the mark
        # of the edge it was reached by
        if v in B:
            return True
        for nb, head_at_v, head_at_nb in _edges_at(g, v):
            if nb in visited and nb not in B:
                continue
            collider = arrived_head and head_at_v
            if collider:
                if v not in an_cond:
                    continue
            elif v in cond:
                continue
            if dfs(nb, head_at_nb, visited | {nb}):
                return True
        return False

    for x in A:
        for nb, _hx, h_nb in _edges_at(g, x):
            if nb in B:
                return False
            if dfs(nb, h_nb, frozenset({x, nb})):
                return False
    return True


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


def register_alone(law: O.FactoredLaw, kept, ev: dict) -> np.ndarray:
    """The array that the program of one atom, the marginal over kept at
    the evidence ev, leaves in its result's register: the marginal without
    the axes its plan drops, in the memory order a program's register has."""
    atom = K.Atom(law.name, tuple(set(kept) | set(ev)), pins=tuple(ev.items()))
    program = K._program(atom, law.name, tuple(law.variables.items()), law._pattern)
    return program.registers(law)[program.out]


def stored_alone(law: O.FactoredLaw, plans: dict, sources: dict, asked: tuple) -> np.ndarray:
    """The array of the marginal asked, (kept variables, evidence), made as
    the program makes it but from tables computed alone: a marginal the
    program derives (``K._plan_marginals``) comes from its source's array,
    itself a marginal of the law alone, through the call the program
    binds."""
    kept, ev = asked
    if asked not in sources:
        return register_alone(law, kept, dict(ev))
    source = sources[asked]
    data = register_alone(law, source[0], dict(source[1]))
    steps = K._derivation(plans[source].layout, plans[asked].layout, dict(ev))
    return K._bind_derived(0, steps)([data])


def derived_alone(law: O.FactoredLaw, plans: dict, sources: dict, asked: tuple) -> NamedTable:
    """``stored_alone``'s marginal with the axes its plan drops put back."""
    t = plans[asked].layout
    data = K._converted(stored_alone(law, plans, sources, asked),
                        K._conversion(t, t.dims, t.domains, {}))
    return NamedTable(t.dims, dict(t.domains), data)


def functions_of(pattern: K.ZeroPattern) -> tuple:
    """The masks of a zero pattern's tables and the functions they make, as
    ``K._program`` finds them."""
    masks = tuple(K._mask(t, bits) for t, bits in zip(*pattern[:2]))
    return masks, K._functions(pattern, masks)


def plan_slices(pattern: K.ZeroPattern, masks: tuple, functions: tuple, keep,
                evidence: K.Pins = ()) -> list[int]:
    """The positions of the factors that the plan of the marginal over keep
    at the evidence slices, in the plan's order."""
    op_ids: dict = {}
    plan = K._contraction_plan(pattern, frozenset(keep), evidence, functions,
                               K._support(pattern, masks, dict(evidence)), op_ids)
    keys = list(op_ids)
    return [keys[i][0] for i in plan.ops if not isinstance(keys[i][0], K._Step)]


def plan_marginals(law: O.FactoredLaw, expr: K.Expr) -> tuple[dict, dict]:
    """The plans of the marginals that the program of expr on the law asks
    for, and the source of each that can be derived from another
    (``K._plan_marginals``)."""
    return K._plan_marginals(expr, law.name, set(law.variables), law._pattern,
                             *functions_of(law._pattern), {})


def program_marginals(law: O.FactoredLaw, expr: K.Expr) -> tuple[dict, dict]:
    """The plans of the marginals that the program of expr on the law asks
    for, and the source of each it derives, recorded as the program is
    planned: the marginals whose layouts its ``K._derivation`` calls make
    once every marginal is planned."""
    plan, derivation = K._plan_marginals, K._derivation
    planned, made = [], []

    def plan_marginals(*args):
        planned.append(plan(*args))
        made.clear()        # the planner's calls only test whether a source can make a table
        return planned[-1]

    def derive(source, table, ev):
        made.append(table)
        return derivation(source, table, ev)

    with mock.patch.object(K, "_plan_marginals", plan_marginals), \
            mock.patch.object(K, "_derivation", derive):
        K._program.__wrapped__(expr, law.name, tuple(law.variables.items()), law._pattern)
    ((plans, sources),) = planned
    return plans, {r: s for r, s in sources.items()
                   if any(t is plans[r].layout for t in made)}


def check_derived(law: O.FactoredLaw, expr: K.Expr) -> list:
    """Each marginal that the program of expr can derive, checked against
    its direct plan: equal axes, domains, NaN and zero cells, other cells
    within 1e-14.  Returns the derived tables."""
    plans, sources = plan_marginals(law, expr)
    out = []
    for asked in sources:
        got = derived_alone(law, plans, sources, asked)
        want = law.on_support(asked[0], dict(asked[1]))
        assert got.dims == want.dims and got.domains == want.domains
        assert got.data.shape == want.data.shape
        assert np.array_equal(np.isnan(got.data), np.isnan(want.data))
        assert np.array_equal(got.data == 0, want.data == 0)
        assert np.all(np.abs(got.data - want.data)[~np.isnan(want.data)] <= 1e-14)
        out.append(got)
    return out
