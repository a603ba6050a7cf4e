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

from .graph import Cadmg
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
    """Inverse of parse_graph_file (round-trips modulo ordering)."""
    lines: list[str] = []
    if isinstance(model, MdDag):
        g = model.graph
        skip_edges = set()
        for t in sorted(model.triples, key=lambda t: t.proxy):
            lines.append(f"var {t.proxy} missing")
            skip_edges |= {(t.indicator, t.proxy), (t.truth, t.proxy)}
        for o in sorted(model.observed):
            lines.append(f"var {o} observed")
        for a, b in sorted(g.directed_edges):
            if (a, b) not in skip_edges:
                lines.append(f"edge {a} -> {b}")
        for a, b in sorted(g.bidirected_edges):
            lines.append(f"edge {a} <-> {b}")
    else:
        for v in model.vertex_names:
            lines.append(f"var {v} observed")
        for a, b in sorted(model.directed_edges):
            lines.append(f"edge {a} -> {b}")
        for a, b in sorted(model.bidirected_edges):
            lines.append(f"edge {a} <-> {b}")
    return "\n".join(lines) + "\n"
