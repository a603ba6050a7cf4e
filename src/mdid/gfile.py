"""Line-oriented graph file format.

    # comment
    var X1 missing          -> expands to the (X1(1), R1, X1) triple with
                               the mandated proxy edges
    var O3 observed
    edge X1(1) -> R2
    edge A <-> B

Identifiers are whitespace-free tokens; '#' starts a comment.  Files with at
least one missing variable parse into an MdDag, otherwise into a plain Cadmg.
"""

from __future__ import annotations

from .graph import Cadmg, GraphError
from .model import MdDag, ModelError, Triple, triple_for, validate_md_dag


class ParseError(ValueError):
    """A syntax error carries its line number; a structural error, which
    belongs to the whole file, carries None."""

    def __init__(self, line_no: int | None, message: str):
        self.line_no = line_no
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


def parse_graph_file(text: str) -> MdDag | Cadmg:
    triples: list[Triple] = []
    observed: list[str] = []
    directed: list[tuple[str, str]] = []
    bidirected: list[tuple[str, str]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "var":
            if len(tokens) != 3 or tokens[2] not in ("missing", "observed"):
                raise ParseError(line_no, "expected: var NAME missing|observed")
            if tokens[2] == "missing":
                triples.append(triple_for(tokens[1]))
            else:
                observed.append(tokens[1])
        elif tokens[0] == "edge":
            if len(tokens) != 4 or tokens[2] not in ("->", "<->"):
                raise ParseError(line_no, "expected: edge A -> B or edge A <-> B")
            a, b = tokens[1], tokens[3]
            if tokens[2] == "->":
                directed.append((a, b))
            else:
                bidirected.append((a, b))
        else:
            raise ParseError(line_no, f"unknown directive {tokens[0]!r}")

    names = list(observed)
    for t in triples:
        names += [t.truth, t.indicator, t.proxy]
        directed += [(t.indicator, t.proxy), (t.truth, t.proxy)]
    try:
        if triples:
            graph = Cadmg(names, directed, bidirected)
            return validate_md_dag(graph, triples, observed)
        return Cadmg(names, directed, bidirected)
    except (ModelError, ValueError) as exc:
        raise ParseError(None, str(exc)) from exc


def render_graph_file(model: MdDag | Cadmg) -> str:
    """Inverse of parse_graph_file (round-trips modulo ordering).  The format
    has no status syntax, and a missing variable names only its proxy, so a
    graph with fixed or selected vertices, or a triple that ``triple_for``
    does not make of its proxy, raises GraphError rather than coming back
    otherwise or not at all."""
    g = model.graph if isinstance(model, MdDag) else model
    if g.fixed_vertices or g.selected_vertices:
        raise GraphError(
            f"the graph file format cannot carry vertex statuses: fixed "
            f"{sorted(g.fixed_vertices)}, selected {sorted(g.selected_vertices)}")
    lines: list[str] = []
    skip_edges: set[tuple[str, str]] = set()
    if isinstance(model, MdDag):
        for t in sorted(model.triples, key=lambda t: t.proxy):
            if t != triple_for(t.proxy):
                raise GraphError(f"the graph file format cannot carry {t}: var {t.proxy}"
                                 f" missing reads as {triple_for(t.proxy)}")
            lines.append(f"var {t.proxy} missing")
            skip_edges |= {(t.indicator, t.proxy), (t.truth, t.proxy)}
        lines += [f"var {o} observed" for o in sorted(model.observed)]
    else:
        lines += [f"var {v} observed" for v in g.vertex_names]
    lines += [f"edge {a} -> {b}" for a, b in sorted(g.directed_edges)
              if (a, b) not in skip_edges]
    lines += [f"edge {a} <-> {b}" for a, b in sorted(g.bidirected_edges)]
    return "\n".join(lines) + "\n"
