"""m-separation on mixed graphs via collider-aware reachability.

Bidirected edge endpoints count as arrowheads, so a vertex on a path is a
collider exactly when both incident path edges point into it.  A path is open
given a conditioning set C when every collider is an ancestor of C and every
non-collider is outside C.  Selected vertices are implicitly conditioned on;
fixed vertices only have outgoing edges, hence every path through one is
blocked at a conditioned non-collider (they behave as pure context).

The search walks (vertex, arrived-with-arrowhead) states, which is linear in
the number of edges per query.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from .graph import Cadmg, GraphError

# An edge incident to v is described by the mark at v: True = arrowhead at v.
# Directed a->b: tail at a, head at b.  Bidirected: head at both ends.


def _incident(g: Cadmg, v: str):
    """Yield (neighbor, head_at_v, head_at_neighbor) for edges at v."""
    for c in g.children([v]):
        yield c, False, True
    for p in g.parents([v]):
        yield p, True, False
    for s in g.siblings([v]):
        yield s, True, True


def m_separated(g: Cadmg, a: Iterable[str], b: Iterable[str],
                c: Iterable[str] = ()) -> bool:
    """True iff every path between a and b is blocked given c.

    a, b, c must be pairwise disjoint.  Selected vertices not under test are
    added to c automatically; fixed vertices act as always-blocked context.
    """
    A = g._require(a)
    B = g._require(b)
    C = g._require(c)
    if A & B or A & C or B & C:
        raise GraphError("m_separated requires pairwise disjoint vertex sets")
    if not A or not B:
        return True

    cond = set(C)
    cond |= g.selected_vertices - A - B
    cond |= g.fixed_vertices - A - B
    an_cond = g.ancestors(cond) if cond else frozenset()

    # State: (vertex, arrived_with_head_at_vertex).  From a start vertex we
    # may leave along any edge (no incoming mark yet).
    seen: set[tuple[str, bool]] = set()
    work: deque[tuple[str, bool]] = deque()

    def push(v: str, head: bool) -> None:
        if (v, head) not in seen:
            seen.add((v, head))
            work.append((v, head))

    for x in A:
        for nb, _head_at_x, head_at_nb in _incident(g, x):
            push(nb, head_at_nb)

    while work:
        v, head = work.popleft()
        if v in B:
            return False
        for nb, head_at_v, head_at_nb in _incident(g, v):
            collider = head and head_at_v
            if collider:
                if v in an_cond:
                    push(nb, head_at_nb)
            elif v not in cond:
                push(nb, head_at_nb)
    return True
