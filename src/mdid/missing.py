"""Missing-data model operations: reading proxy axes as censored variables,
law assembly from identified propensities, non-identifiability
certificates, and the ancestral fast path.

The target law divides the all-observed slice of the observed law by the
product of the indicator propensities; proxies then stand for the censored
variables by consistency.  The full law multiplies the propensities back in
at free indicator values, which is sound only when no propensity needed an
indicator parent pinned to 1 or read a proxy without its indicator at 1:
``full_law_obstructions`` is that one check, for the schedule search and
for the assembly alike.  Each functional's expression is built once, when
it is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from . import kernel as K
from .fixing import FixingSchedule, Violation
from .kernel import Expr, NamedTable, rename_axes
from .model import MISSING_TOKEN, MdDag


class AssemblyError(ValueError):
    pass


def without_censored_rows(law, tab: NamedTable) -> NamedTable:
    """The table over the law's domains without the missing-value token:
    zero at the values its own domains leave out, the "?" rows of proxy
    axes dropped."""
    return tab.padded({d: tuple(v for v in law.variables[d] if v != MISSING_TOKEN)
                       for d in tab.dims})


def _on_truths(md: MdDag, law, e: Expr) -> NamedTable:
    """e evaluated on law, without "?" rows, proxy axes renamed to truths."""
    return rename_axes(without_censored_rows(law, K.evaluate_numeric(e, law)),
                       {t.proxy: t.truth for t in md.triples})


@dataclass
class TargetLawFunctional:
    """Identifying functional for the law of the censored and fully observed
    variables, expressed over the observed data law."""

    md: MdDag
    expr: Expr
    propensities: dict[str, Expr]

    def evaluate(self, law) -> NamedTable:
        return _on_truths(self.md, law, self.expr)

    def render(self, fmt: str = "latex") -> str:
        return K.render(self.expr, fmt)


@dataclass
class FullLawFunctional:
    """Identifying functional for the joint law including the indicators."""

    md: MdDag
    expr: Expr
    numerator: Expr               # observed law at all indicators = 1
    propensities: dict[str, Expr]

    def evaluate(self, law) -> NamedTable:
        return _on_truths(self.md, law, self.expr)

    def render(self, fmt: str = "latex") -> str:
        parts = [K.render(q, fmt) for _, q in sorted(self.propensities.items())]
        if fmt == "latex":
            return (r"\left[" + r"\,".join(parts) + r"\right]\cdot\frac{"
                    + K.render(self.numerator, fmt) + r"}{\left[\cdots\right]_{R=1}}")
        return "(fulllaw " + " ".join(parts) + " " + K.render(self.numerator, fmt) + ")"


def _pin_free_indicators(md: MdDag, q: Expr) -> Expr:
    at = {r: 1 for r in md.indicators
          if r in q.free() or r in q.contexts()}
    return K.restrict_values(q, at) if at else q


def _all_observed_slice(md: MdDag, propensities: Mapping[str, Expr]) -> Expr:
    """The observed law at every indicator = 1, once every indicator has a
    propensity."""
    missing = set(md.indicators) - set(propensities)
    if missing:
        raise AssemblyError(f"missing propensities for {sorted(missing)}")
    return K.restrict_values(
        K.Atom("p", tuple(sorted(md.observed_columns))),
        {r: 1 for r in sorted(md.indicators)})


def assemble_target_law(md: MdDag, propensities: Mapping[str, Expr]) -> TargetLawFunctional:
    """All-observed slice of p divided by the propensity product."""
    num = _all_observed_slice(md, propensities)
    den = K.product([_pin_free_indicators(md, propensities[r])
                     for r in sorted(propensities)])
    return TargetLawFunctional(md, K.quotient(num, den), dict(propensities))


def full_law_obstructions(md: MdDag, indicator: str, q: Expr) -> Violation | None:
    """Why a propensity cannot enter the full-law product, as a ("full")
    violation: indicator parents pinned to 1, or conditioning on proxies
    whose indicator is not at 1, whose censored variables are the
    violation's vertices.  None when it can."""
    pins, read = q.pinned(), q.free() | q.contexts()
    details = [f"{indicator}: parent {r} only available at value 1"
               for r in sorted(md.graph.parents([indicator]) & md.indicators)
               if r in pins]
    culprits = []
    for t in md.triples:
        if t.proxy in read and pins.get(t.indicator) != 1:
            details.append(f"{indicator}: conditions on proxy {t.proxy} without "
                           f"{t.indicator}=1")
            culprits.append(t.truth)
    if not details:
        return None
    return Violation("full", None, "; ".join(details), tuple(culprits))


def assemble_full_law(md: MdDag, propensities: Mapping[str, Expr]) -> FullLawFunctional:
    """The all-observed slice times each propensity over its value at every
    indicator = 1: one expression, (((num q1) / q1|R=1) q2) / q2|R=1 ...,
    whose nodes are built raw, so canonicalization merges nothing."""
    num = _all_observed_slice(md, propensities)
    problems = [v.detail for r, q in sorted(propensities.items())
                if (v := full_law_obstructions(md, r, q))]
    if problems:
        raise AssemblyError("; ".join(problems))
    expr = num
    for _, q in sorted(propensities.items()):
        expr = K.Quotient(K.Product((expr, q)), _pin_free_indicators(md, q))
    return FullLawFunctional(md, expr, num, dict(propensities))


# ---------------------------------------------------------------------------
# certificates and fast paths
# ---------------------------------------------------------------------------


def colluder_scan(md: MdDag) -> list[tuple[str, str]]:
    """All pairs (R_i, R_j) where R_j and its censored variable are both
    parents of R_i; any such pair certifies full-law non-identifiability."""
    out = []
    g = md.graph
    for ti in md.triples:
        pa = g.parents([ti.indicator])
        for tj in md.triples:
            if tj.indicator == ti.indicator:
                continue
            if tj.indicator in pa and tj.truth in pa:
                out.append((ti.indicator, tj.indicator))
    return sorted(out)


def ancestral_precondition(md: MdDag) -> bool:
    """No indicator has an ancestor among the indicators of its censored
    parents (self-censoring is the reflexive special case)."""
    g = md.graph
    for t in md.triples:
        pa = g.parents([t.indicator])
        culprits = {md.triple_of(u).indicator for u in pa & md.truths}
        if culprits & g.ancestors([t.indicator]):
            return False
    return True


def ancestral_schedule(md: MdDag, indicator: str) -> FixingSchedule:
    """Schedule over the indicator's own indicator-descendants, deepest
    first, with every censored variable kept visible."""
    g = md.graph
    members = sorted(g.descendants([indicator]) & md.indicators)
    classes = tuple(frozenset({m}) for m in members)
    idx = {m: i for i, m in enumerate(members)}
    order = []
    for a in members:
        for b in members:
            if a != b and a in g.descendants([b]):
                order.append((idx[a], idx[b]))
    proms = tuple(md.truths for _ in classes)
    return FixingSchedule(classes, tuple(order), proms)
