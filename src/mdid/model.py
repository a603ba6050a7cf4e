"""Missing-data DAG models: censored variables, indicators, and proxies.

An MdDag is a DAG over censored variables (written with a "(1)" suffix, e.g.
``X1(1)``), their binary missingness indicators (``R1``), deterministic
proxies (``X1``), and fully observed variables.  Structural requirements:
every proxy has exactly its indicator and its censored variable as parents,
proxies have no children, and no indicator has a censored or fully observed
descendant.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .graph import Cadmg

# the value a proxy takes when its censored variable is missing
MISSING_TOKEN = "?"


class ModelError(ValueError):
    """Raised when a graph violates the missing-data model structure."""

    def __init__(self, violations):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Triple:
    """One censored variable with its indicator and proxy."""

    truth: str
    indicator: str
    proxy: str


@dataclass(frozen=True)
class MdDag:
    """A validated missing-data DAG.  Construct via validate_md_dag."""

    graph: Cadmg
    triples: tuple[Triple, ...]
    observed: frozenset[str]

    @cached_property
    def truths(self) -> frozenset[str]:
        return frozenset(t.truth for t in self.triples)

    @cached_property
    def indicators(self) -> frozenset[str]:
        return frozenset(t.indicator for t in self.triples)

    @cached_property
    def proxies(self) -> frozenset[str]:
        return frozenset(t.proxy for t in self.triples)

    @cached_property
    def observed_columns(self) -> frozenset[str]:
        """Variables of the observed data law."""
        return self.indicators | self.proxies | self.observed

    @cached_property
    def _triple_by_name(self) -> dict[str, Triple]:
        return {n: t for t in self.triples for n in (t.truth, t.indicator, t.proxy)}

    def triple_of(self, name: str) -> Triple:
        try:
            return self._triple_by_name[name]
        except KeyError:
            raise ModelError(
                f"{name!r} belongs to no censored-variable triple") from None

    def sorted_indicators(self) -> tuple[str, ...]:
        return tuple(sorted(self.indicators))


def triple_for(base: str) -> Triple:
    """The triple of a censored base name: ``X1`` (X<digits>) expands to
    (X1(1), R1, X1), any other NAME to (NAME(1), R_NAME, NAME)."""
    if base.startswith("X") and base[1:].isdigit():
        indicator = "R" + base[1:]
    else:
        indicator = "R_" + base
    return Triple(base + "(1)", indicator, base)


def validate_md_dag(graph: Cadmg, triples: Sequence[Triple],
                    observed: Iterable[str] = ()) -> MdDag:
    """Check the structural constraints and return the validated model."""
    violations: list[str] = []
    triples = tuple(triples)
    observed = frozenset(observed)

    names: list[str] = []
    for t in triples:
        names += [t.truth, t.indicator, t.proxy]
    if len(set(names)) != len(names):
        violations.append("triple members are not pairwise distinct")
    roleset = set(names) | observed
    if observed & set(names):
        violations.append("observed variables overlap triple members")

    for n in roleset:
        if n not in graph:
            violations.append(f"role variable {n!r} missing from the graph")
    extra = set(graph.vertex_names) - roleset
    if extra:
        violations.append(f"graph vertices without a role: {sorted(extra)}")
    if violations:
        raise ModelError(violations)

    if graph.bidirected_edges:
        violations.append("input model must be a DAG (no bidirected edges)")
    if graph.fixed_vertices or graph.selected_vertices:
        violations.append("input model vertices must all be random")

    truths = frozenset(t.truth for t in triples)
    for t in triples:
        pa = graph.parents([t.proxy])
        if pa != {t.indicator, t.truth}:
            violations.append(
                f"proxy {t.proxy!r} must have parents exactly "
                f"{{{t.indicator}, {t.truth}}}, got {sorted(pa)}")
        if graph.children([t.proxy]):
            violations.append(f"proxy {t.proxy!r} must have no children")
        bad = (graph.descendants([t.indicator]) & (truths | observed))
        if bad:
            violations.append(
                f"indicator {t.indicator!r} has censored or fully observed "
                f"descendants {sorted(bad)}")

    if violations:
        raise ModelError(violations)
    return MdDag(graph, triples, observed)


def md_dag(directed: Iterable[tuple[str, str]], missing: Iterable[str],
           observed: Iterable[str] = ()) -> MdDag:
    """Convenience builder: declare censored base names (e.g. "X1") plus the
    substantive edges; proxy edges are generated.  Base names expand to
    triples by triple_for."""
    triples = [triple_for(base) for base in missing]
    observed = tuple(observed)
    names = [n for t in triples for n in (t.truth, t.indicator, t.proxy)]
    names += list(observed)
    di = list(directed)
    for t in triples:
        di += [(t.indicator, t.proxy), (t.truth, t.proxy)]
    graph = Cadmg(names, di)
    return validate_md_dag(graph, triples, observed)
