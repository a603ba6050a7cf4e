"""Classical identification of interventional distributions.

The g-formula handles DAGs directly.  On mixed graphs the interventional
distribution is a truncated nested factorization: one kernel per district of
the induced subgraph on the outcome-relevant ancestors, each obtained by
greedily fixing everything outside the district.  Greedy choice is complete
for reachability because fixability is order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import kernel as K
from .fixing import fix_sequence, fixable_sequence_to
from .graph import Cadmg
from .kernel import Expr


class CausalError(ValueError):
    pass


@dataclass(frozen=True)
class InterventionQuery:
    outcomes: frozenset[str]
    treatments: tuple[tuple[str, object], ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", frozenset(self.outcomes))
        object.__setattr__(self, "treatments",
                           tuple(sorted(dict(self.treatments).items())))
        if self.outcomes & {v for v, _ in self.treatments}:
            raise CausalError("outcomes and treatments overlap")

    @property
    def treated(self) -> frozenset[str]:
        return frozenset(v for v, _ in self.treatments)


@dataclass
class CausalResult:
    status: str                     # "identified" | "not-identified"
    expr: Expr | None
    failing_district: frozenset[str] | None = None


def _check_query(g: Cadmg, q: InterventionQuery) -> None:
    for v in g._require(q.outcomes | q.treated):
        if v not in g.random_vertices:
            raise CausalError(f"query variable {v!r} is not random")


def g_formula(g: Cadmg, query: InterventionQuery) -> Expr:
    """Truncated factorization for DAGs."""
    if g.bidirected_edges:
        raise CausalError("the g-formula needs a DAG (no bidirected edges)")
    _check_query(g, query)
    factors = []
    for v in g.random_vertices - query.treated:
        factors.append(K.Atom("p", (v,), tuple(sorted(g.parents([v])))))
    expr = K.product(factors)
    if query.treatments:
        expr = K.restrict_values(expr, dict(query.treatments))
    out = expr.free() - query.outcomes
    return K.marginalize(expr, out)


def identify_interventional(g: Cadmg, query: InterventionQuery) -> CausalResult:
    """Truncated nested factorization on a mixed graph; fails by exhibiting
    the first district that is not reachable."""
    _check_query(g, query)
    rest = g.induced_subgraph(g.random_vertices - query.treated)
    ystar = rest.ancestors(query.outcomes)
    sub = g.induced_subgraph(ystar)
    pieces = []
    base = K.Atom("p", tuple(sorted(g.random_vertices)))
    for district in sub.districts():
        seq = fixable_sequence_to(g, district)
        if seq is None:
            return CausalResult("not-identified", None, district)
        step = fix_sequence(g, base, seq)
        pieces.append(step.kernel)
    expr = K.product(pieces)
    if query.treatments:
        at = {v: val for v, val in query.treatments
              if v in expr.free() or v in expr.contexts()}
        expr = K.restrict_values(expr, at)
    expr = K.marginalize(expr, (expr.free() & ystar) - query.outcomes)
    return CausalResult("identified", expr)
