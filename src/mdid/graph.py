"""Mixed graphs with random / fixed / selected vertices and genealogic queries.

The one graph object used everywhere: a conditional acyclic directed mixed
graph (CADMG).  Each vertex has one of three statuses: ``random``
(ordinary), ``fixed`` (context, only outgoing directed edges allowed), or
``selected`` (random but implicitly conditioned on; the value it is selected
at lives in the kernel's pins, not in the graph).  Graphs are immutable;
every query is a pure function, and every emitted sequence is tie-broken
lexicographically so results are reproducible.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Iterable, Mapping


class GraphError(ValueError):
    """Raised for malformed graphs or invalid queries."""


def _norm_bi(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _check_endpoints(vertices: Mapping[str, object], a: str, b: str) -> None:
    if a == b:
        raise GraphError(f"self loop at {a!r}")
    for end in (a, b):
        if end not in vertices:
            raise GraphError(f"edge endpoint {end!r} is not a vertex")


def _topological_order(parents: Mapping[str, frozenset[str]],
                       children: Mapping[str, frozenset[str]]) -> tuple[str, ...]:
    """Directed-edge-respecting total order, lexicographic tie-break; raises
    on a directed cycle."""
    indeg = {n: len(ps) for n, ps in parents.items()}
    ready = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    out: list[str] = []
    while ready:
        n = heapq.heappop(ready)
        out.append(n)
        for m in sorted(children[n]):
            indeg[m] -= 1
            if indeg[m] == 0:
                heapq.heappush(ready, m)
    if len(out) != len(parents):
        raise GraphError("graph contains a directed cycle")
    return tuple(out)


class Cadmg:
    """Immutable conditional ADMG.

    ``directed`` is a set of (tail, head) pairs, ``bidirected`` a set of
    unordered pairs stored as sorted tuples; ``fixed`` and ``selected`` name
    the vertices with those statuses, every other vertex is random.
    Invariants: names are distinct, a vertex has at most one status, edge
    endpoints exist, no self loops, no directed cycles, and no arrowhead may
    point into a fixed vertex (neither a directed head nor a bidirected
    endpoint).
    """

    __slots__ = ("vertex_names", "random_vertices", "fixed_vertices",
                 "selected_vertices", "_directed", "_bidirected", "_parents",
                 "_children", "_siblings", "_order")

    def __init__(self, vertices: Iterable[str],
                 directed: Iterable[tuple[str, str]] = (),
                 bidirected: Iterable[tuple[str, str]] = (),
                 fixed: Iterable[str] = (), selected: Iterable[str] = ()):
        names = tuple(vertices)
        vs = frozenset(names)
        if len(vs) != len(names):
            dup = next(n for i, n in enumerate(names) if n in names[:i])
            raise GraphError(f"duplicate vertex name {dup!r}")
        self.vertex_names: tuple[str, ...] = tuple(sorted(vs))
        fixed = frozenset(fixed)
        selected = frozenset(selected)
        if (fixed | selected) - vs:
            raise GraphError(f"status names {sorted((fixed | selected) - vs)} "
                             f"are not vertices")
        if fixed & selected:
            raise GraphError(f"vertices {sorted(fixed & selected)} are both "
                             f"fixed and selected")
        self.fixed_vertices: frozenset[str] = fixed
        self.selected_vertices: frozenset[str] = selected
        self.random_vertices: frozenset[str] = vs - fixed - selected

        pa: dict[str, set[str]] = {n: set() for n in self.vertex_names}
        ch: dict[str, set[str]] = {n: set() for n in self.vertex_names}
        sib: dict[str, set[str]] = {n: set() for n in self.vertex_names}
        di = set()
        for a, b in directed:
            _check_endpoints(pa, a, b)
            if b in fixed:
                raise GraphError(f"directed edge into fixed vertex {b!r}")
            di.add((a, b))
            pa[b].add(a)
            ch[a].add(b)
        bi = set()
        for a, b in bidirected:
            _check_endpoints(pa, a, b)
            for end in (a, b):
                if end in fixed:
                    raise GraphError(f"bidirected edge at fixed vertex {end!r}")
            bi.add(_norm_bi(a, b))
            sib[a].add(b)
            sib[b].add(a)
        self._directed = frozenset(di)
        self._bidirected = frozenset(bi)
        self._parents = {n: frozenset(s) for n, s in pa.items()}
        self._children = {n: frozenset(s) for n, s in ch.items()}
        self._siblings = {n: frozenset(s) for n, s in sib.items()}
        self._order = _topological_order(self._parents, self._children)

    # -- basic accessors ---------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._parents

    @property
    def directed_edges(self) -> frozenset[tuple[str, str]]:
        return self._directed

    @property
    def bidirected_edges(self) -> frozenset[tuple[str, str]]:
        return self._bidirected

    def _key(self) -> tuple:
        return (self.vertex_names, self.fixed_vertices, self.selected_vertices,
                self._directed, self._bidirected)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cadmg):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        def mark(n: str) -> str:
            return ("□" if n in self.fixed_vertices
                    else "▿" if n in self.selected_vertices else "")
        names = ",".join(n + mark(n) for n in self.vertex_names)
        return f"Cadmg({names}; ->:{len(self._directed)} <->:{len(self._bidirected)})"

    # -- genealogy ---------------------------------------------------------

    def _require(self, names: Iterable[str]) -> frozenset[str]:
        s = frozenset(names)
        for n in s:
            if n not in self._parents:
                raise GraphError(f"unknown vertex {n!r}")
        return s

    def parents(self, targets: Iterable[str]) -> frozenset[str]:
        ts = self._require(targets)
        out: set[str] = set()
        for t in ts:
            out |= self._parents[t]
        return frozenset(out)

    def children(self, targets: Iterable[str]) -> frozenset[str]:
        ts = self._require(targets)
        out: set[str] = set()
        for t in ts:
            out |= self._children[t]
        return frozenset(out)

    def siblings(self, targets: Iterable[str]) -> frozenset[str]:
        ts = self._require(targets)
        out: set[str] = set()
        for t in ts:
            out |= self._siblings[t]
        return frozenset(out)

    def _closure(self, targets: frozenset[str], step: Mapping[str, frozenset[str]]) -> frozenset[str]:
        seen = set(targets)
        work = deque(targets)
        while work:
            n = work.popleft()
            for m in step[n]:
                if m not in seen:
                    seen.add(m)
                    work.append(m)
        return frozenset(seen)

    def descendants(self, targets: Iterable[str]) -> frozenset[str]:
        """Reflexive descendant closure, disjunctive over the target set."""
        return self._closure(self._require(targets), self._children)

    def ancestors(self, targets: Iterable[str]) -> frozenset[str]:
        """Reflexive ancestor closure, disjunctive over the target set."""
        return self._closure(self._require(targets), self._parents)

    # -- districts and blankets ---------------------------------------------

    def district(self, name: str) -> frozenset[str]:
        """Bidirected-connected component of a non-fixed vertex.  Fixed
        vertices have no bidirected edges, so none is ever reached."""
        self._require([name])
        if name in self.fixed_vertices:
            raise GraphError(f"fixed vertex {name!r} belongs to no district")
        return self._closure(frozenset([name]), self._siblings)

    def districts(self) -> tuple[frozenset[str], ...]:
        """Partition of the non-fixed vertices into districts."""
        out = []
        done: set[str] = set()
        for n in self.vertex_names:
            if n in self.fixed_vertices or n in done:
                continue
            d = self.district(n)
            done |= d
            out.append(d)
        return tuple(out)

    def markov_blanket(self, targets: Iterable[str]) -> frozenset[str]:
        """District of the target set plus the district's parents, minus it.

        For a set the targets must lie within a single district.
        """
        ts = self._require(targets)
        if not ts:
            return frozenset()
        ds = {frozenset(self.district(t)) for t in ts}
        if len(ds) > 1:
            raise GraphError(f"targets {sorted(ts)} span multiple districts")
        d = next(iter(ds))
        return (d | self.parents(d)) - ts

    # -- structural transforms ----------------------------------------------

    def induced_subgraph(self, keep: Iterable[str]) -> "Cadmg":
        ks = self._require(keep)
        return Cadmg(
            ks,
            ((a, b) for a, b in self._directed if a in ks and b in ks),
            ((a, b) for a, b in self._bidirected if a in ks and b in ks),
            self.fixed_vertices & ks,
            self.selected_vertices & ks,
        )

    def with_statuses(self, fixed: Iterable[str] = (),
                      selected: Iterable[str] = ()) -> "Cadmg":
        """Copy with some vertices re-statused; a name passed in both ends up
        fixed.  Edges into newly fixed vertices are dropped (arrowhead
        removal), matching the fixing operator."""
        fixed = self._require(fixed)
        selected = self._require(selected)
        now_fixed = fixed | (self.fixed_vertices - selected)
        di = [(a, b) for a, b in self._directed if b not in fixed]
        bi = [(a, b) for a, b in self._bidirected
              if a not in fixed and b not in fixed]
        return Cadmg(self.vertex_names, di, bi, now_fixed,
                     (self.selected_vertices | selected) - now_fixed)

    # -- ordering ------------------------------------------------------------

    def topological_order(self) -> tuple[str, ...]:
        """Directed-edge-respecting total order, lexicographic tie-break."""
        return self._order
