"""Mixed graphs with random / fixed / selected vertices and genealogic queries.

The one graph object used everywhere: a conditional acyclic directed mixed
graph (CADMG).  Vertices carry a status: ``random`` (ordinary), ``fixed``
(context, only outgoing directed edges allowed), or ``selected`` (random but
pinned to a value, i.e. implicitly conditioned on).  Graphs are immutable;
every query is a pure function, and every emitted sequence is tie-broken
lexicographically so results are reproducible.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping

RANDOM = "random"
FIXED = "fixed"
SELECTED = "selected"

_STATUSES = (RANDOM, FIXED, SELECTED)


class GraphError(ValueError):
    """Raised for malformed graphs or invalid queries."""


@dataclass(frozen=True)
class Vertex:
    """A named vertex with a status and, when selected, a pinned value."""

    name: str
    status: str = RANDOM
    selected_value: object = None

    def __post_init__(self):
        if self.status not in _STATUSES:
            raise GraphError(f"unknown status {self.status!r} for vertex {self.name!r}")
        if (self.selected_value is not None) != (self.status == SELECTED):
            raise GraphError(
                f"vertex {self.name!r}: selected_value must be present "
                f"exactly when status is selected"
            )


def _norm_bi(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


class Cadmg:
    """Immutable conditional ADMG.

    ``directed`` is a set of (tail, head) pairs, ``bidirected`` a set of
    unordered pairs stored as sorted tuples.  Invariants: endpoints exist, no
    self loops, no directed cycles, and no arrowhead may point into a fixed
    vertex (neither a directed head nor a bidirected endpoint).
    """

    __slots__ = ("_vertices", "_directed", "_bidirected", "_parents", "_children",
                 "_siblings", "_topo_cache", "_hash")

    def __init__(self, vertices: Iterable[Vertex | str],
                 directed: Iterable[tuple[str, str]] = (),
                 bidirected: Iterable[tuple[str, str]] = ()):
        vs: dict[str, Vertex] = {}
        for v in vertices:
            if isinstance(v, str):
                v = Vertex(v)
            if v.name in vs:
                raise GraphError(f"duplicate vertex name {v.name!r}")
            vs[v.name] = v
        self._vertices = dict(sorted(vs.items()))

        di = set()
        for a, b in directed:
            self._check_endpoints(a, b)
            di.add((a, b))
        bi = set()
        for a, b in bidirected:
            self._check_endpoints(a, b)
            bi.add(_norm_bi(a, b))
        self._directed = frozenset(di)
        self._bidirected = frozenset(bi)

        for a, b in self._directed:
            if self._vertices[b].status == FIXED:
                raise GraphError(f"directed edge into fixed vertex {b!r}")
        for a, b in self._bidirected:
            for end in (a, b):
                if self._vertices[end].status == FIXED:
                    raise GraphError(f"bidirected edge at fixed vertex {end!r}")

        self._parents: dict[str, frozenset[str]] = {}
        self._children: dict[str, frozenset[str]] = {}
        self._siblings: dict[str, frozenset[str]] = {}
        pa: dict[str, set[str]] = {n: set() for n in self._vertices}
        ch: dict[str, set[str]] = {n: set() for n in self._vertices}
        sib: dict[str, set[str]] = {n: set() for n in self._vertices}
        for a, b in self._directed:
            pa[b].add(a)
            ch[a].add(b)
        for a, b in self._bidirected:
            sib[a].add(b)
            sib[b].add(a)
        for n in self._vertices:
            self._parents[n] = frozenset(pa[n])
            self._children[n] = frozenset(ch[n])
            self._siblings[n] = frozenset(sib[n])

        self._topo_cache: tuple[str, ...] | None = None
        self._topo_cache = self.topological_order()  # also proves acyclicity
        self._hash = hash((tuple(self._vertices.values()), self._directed,
                           self._bidirected))

    def _check_endpoints(self, a: str, b: str) -> None:
        if a == b:
            raise GraphError(f"self loop at {a!r}")
        for end in (a, b):
            if end not in self._vertices:
                raise GraphError(f"edge endpoint {end!r} is not a vertex")

    # -- basic accessors ---------------------------------------------------

    @property
    def vertex_names(self) -> tuple[str, ...]:
        return tuple(self._vertices)

    def vertex(self, name: str) -> Vertex:
        try:
            return self._vertices[name]
        except KeyError:
            raise GraphError(f"unknown vertex {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._vertices

    @property
    def directed_edges(self) -> frozenset[tuple[str, str]]:
        return self._directed

    @property
    def bidirected_edges(self) -> frozenset[tuple[str, str]]:
        return self._bidirected

    def status(self, name: str) -> str:
        return self.vertex(name).status

    @property
    def random_vertices(self) -> frozenset[str]:
        return frozenset(n for n, v in self._vertices.items() if v.status == RANDOM)

    @property
    def fixed_vertices(self) -> frozenset[str]:
        return frozenset(n for n, v in self._vertices.items() if v.status == FIXED)

    @property
    def selected_vertices(self) -> frozenset[str]:
        return frozenset(n for n, v in self._vertices.items() if v.status == SELECTED)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cadmg):
            return NotImplemented
        return (self._vertices == other._vertices
                and self._directed == other._directed
                and self._bidirected == other._bidirected)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        marks = {RANDOM: "", FIXED: "□", SELECTED: "▿"}
        names = ",".join(f"{n}{marks[v.status]}" for n, v in self._vertices.items())
        return f"Cadmg({names}; ->:{len(self._directed)} <->:{len(self._bidirected)})"

    # -- genealogy ---------------------------------------------------------

    def _require(self, names: Iterable[str]) -> frozenset[str]:
        s = frozenset(names)
        for n in s:
            if n not in self._vertices:
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
        """Bidirected-connected component of a non-fixed vertex."""
        if self.status(name) == FIXED:
            raise GraphError(f"fixed vertex {name!r} belongs to no district")
        seen = {name}
        work = deque([name])
        while work:
            n = work.popleft()
            for m in self._siblings[n]:
                if m not in seen and self.status(m) != FIXED:
                    seen.add(m)
                    work.append(m)
        return frozenset(seen)

    def districts(self) -> tuple[frozenset[str], ...]:
        """Partition of the non-fixed vertices into districts."""
        out = []
        done: set[str] = set()
        for n, v in self._vertices.items():
            if v.status == FIXED or n in done:
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
            (self._vertices[n] for n in ks),
            ((a, b) for a, b in self._directed if a in ks and b in ks),
            ((a, b) for a, b in self._bidirected if a in ks and b in ks),
        )

    def with_statuses(self, fixed: Iterable[str] = (),
                      selected: Mapping[str, object] | None = None) -> "Cadmg":
        """Copy with some vertices re-statused; edges into newly fixed vertices
        are dropped (arrowhead removal), matching the fixing operator."""
        fixed = self._require(fixed)
        selected = dict(selected or {})
        self._require(selected)
        vs = []
        for n, v in self._vertices.items():
            if n in fixed:
                vs.append(Vertex(n, FIXED))
            elif n in selected:
                vs.append(Vertex(n, SELECTED, selected[n]))
            else:
                vs.append(v)
        di = [(a, b) for a, b in self._directed if b not in fixed]
        bi = [(a, b) for a, b in self._bidirected
              if a not in fixed and b not in fixed]
        return Cadmg(vs, di, bi)

    # -- ordering ------------------------------------------------------------

    def topological_order(self) -> tuple[str, ...]:
        """Directed-edge-respecting total order, lexicographic tie-break."""
        if self._topo_cache is not None:
            return self._topo_cache
        indeg = {n: len(self._parents[n]) for n in self._vertices}
        ready = [n for n, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        out: list[str] = []
        while ready:
            n = heapq.heappop(ready)
            out.append(n)
            for m in sorted(self._children[n]):
                indeg[m] -= 1
                if indeg[m] == 0:
                    heapq.heappush(ready, m)
        if len(out) != len(self._vertices):
            raise GraphError("graph contains a directed cycle")
        return tuple(out)
