"""Latent projection: marginalize vertices out of a mixed graph.

Computed in one pass.  The front of a vertex is itself when it stays visible,
and the visible vertices reached from it by directed paths through hidden
vertices when it is hidden.  The projection keeps every visible vertex and
has a -> b for every visible a and b in the front of a child of a; a <-> b
for a != b in the fronts of the two endpoints of a bidirected edge; and
a <-> b for a != b both in the front of one hidden vertex.  Paths that
collide at a hidden vertex create no edge.  This equals eliminating the
hidden vertices one at a time in any order; tests compare the two.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .graph import Cadmg, GraphError


def latent_project_out(g: Cadmg, hide: Iterable[str]) -> Cadmg:
    """Project out the given random vertices."""
    hs = g._require(hide)
    if hs - g.random_vertices:
        raise GraphError(f"cannot project out non-random vertices "
                         f"{sorted(hs - g.random_vertices)}")
    if not hs:
        return g
    front: dict[str, frozenset[str]] = {}
    for v in reversed(g.topological_order()):
        front[v] = (frozenset().union(*(front[c] for c in g.children([v])))
                    if v in hs else frozenset([v]))
    kept = [v for v in g.vertex_names if v not in hs]
    directed = {(a, b) for a in kept for c in g.children([a]) for b in front[c]}
    bidirected = {(a, b) for u, v in g.bidirected_edges
                  for a in front[u] for b in front[v] if a != b}
    for h in hs:
        bidirected.update(combinations(front[h], 2))
    return Cadmg(kept, directed, bidirected, g.fixed_vertices, g.selected_vertices)
