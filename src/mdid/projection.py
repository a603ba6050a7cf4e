"""Latent projection: marginalize vertices out of a mixed graph.

Implemented by iterated single-vertex elimination.  Eliminating a hidden h
adds a -> b for every parent a and child b of h, b <-> b' for every pair of
children, and s <-> b for every bidirected neighbor s and child b.  No edge
is created between parents or between parents and bidirected neighbors,
since such paths collide at h.  Elimination order does not matter; the
composition property is covered by tests.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .graph import Cadmg, GraphError


def _eliminate(g: Cadmg, h: str) -> Cadmg:
    pa = sorted(g.parents([h]))
    ch = sorted(g.children([h]))
    sib = sorted(g.siblings([h]))
    new_di = [(a, b) for a in pa for b in ch if a != b]
    new_bi = [(b, b2) for b, b2 in combinations(ch, 2)]
    new_bi += [(s, b) for s in sib for b in ch if s != b]
    return g.drop_vertices([h]).add_edges(new_di, new_bi)


def latent_project_out(g: Cadmg, hide: Iterable[str]) -> Cadmg:
    """Project out the given random vertices."""
    hs = frozenset(hide)
    for h in hs:
        if g.vertex(h).status != "random":
            raise GraphError(f"cannot project out non-random vertex {h!r}")
    out = g
    for h in sorted(hs):
        out = _eliminate(out, h)
    return out
