"""The layers of mdid as the tracer sees them, and the per-layer metrics.

Each layer is a module of ``src/mdid``; its spans wrap that module's public
functions.  Counts and cell totals are measured where the work happens.
"""

from __future__ import annotations

from collections import defaultdict

from tracer import Target, Tracer


def _subproblem_cached(args) -> bool:
    plan, k = args
    return k in getattr(plan, "_sub", ())


def _cone_key(args):
    """What a subproblem depends on: the classes of its predecessor cone with
    their promotion sets, the order inside the cone, and the class itself
    with its promotions (None for the state after the whole schedule)."""
    plan, k = args
    s = plan.sched
    cone = s.cone(k)
    classes = frozenset((s.classes[j], s.promotions[j]) for j in cone)
    order = frozenset((s.classes[i], s.classes[j]) for i, j in s.order
                      if i in cone and j in cone)
    own = (s.classes[k], s.promotions[k]) if k is not None else None
    return classes, order, own


def _indicator_outcome(result, args):
    yield "exhausted", result.status == "unknown"
    yield "fast_path", f"{result.indicator}: ancestral fast path" in result.transcript


def _table_cells(table, args):
    yield "cells", table.data.size


def _law_cells(law, args):
    yield "cells", law.table.data.size


TARGETS = [
    Target("identify.identify_indicator", "mdid.identify:identify_indicator",
           measure=_indicator_outcome),
    Target("fixing.validate_schedule", "mdid.fixing:validate_schedule"),
    Target("fixing.SchedulePlan.subproblem", "mdid.fixing:SchedulePlan.subproblem",
           skip=_subproblem_cached, tag=_cone_key),
    Target("fixing.FixingSchedule.init", "mdid.fixing:FixingSchedule.__init__"),
    Target("graph.Cadmg.init", "mdid.graph:Cadmg.__init__"),
    Target("graph.topological_order", "mdid.graph:Cadmg.topological_order"),
    Target("projection.latent_project_out", "mdid.projection:latent_project_out"),
    Target("separation.m_separated", "mdid.separation:m_separated"),
    Target("kernel.canonicalize", "mdid.kernel:canonicalize", recursive=True),
    # evaluate_numeric is the only entry into the recursive _evaluate, so
    # its span covers one whole evaluation
    Target("kernel.evaluate_numeric", "mdid.kernel:evaluate_numeric"),
    Target("kernel.NamedTable.join", "mdid.kernel:NamedTable.join",
           measure=_table_cells),
    Target("oracle.sample_full_law", "mdid.oracle:sample_full_law"),
    Target("oracle.derive_observed_law", "mdid.oracle:derive_observed_law",
           measure=_law_cells),
    Target("oracle.target_law", "mdid.oracle:target_law"),
    Target("oracle.colluder_witness", "mdid.oracle:colluder_witness"),
    Target("missing.colluder_scan", "mdid.missing:colluder_scan"),
    Target("missing.assemble_target_law", "mdid.missing:assemble_target_law"),
    Target("causal.identify_interventional", "mdid.causal:identify_interventional"),
    Target("gfile.parse_graph_file", "mdid.gfile:parse_graph_file"),
    Target("model.validate_md_dag", "mdid.model:validate_md_dag"),
]

# (metric, unit) in the order the traced run reports them
LAYER_METRICS = [
    ("identify.identify_indicator.calls", "count"),
    ("identify.identify_indicator.self_s", "s"),
    ("identify.schedules_validated", "count"),
    ("identify.searches_exhausted", "count"),
    ("identify.fast_path_hits", "count"),
    ("fixing.validate_schedule.calls", "count"),
    ("fixing.validate_schedule.self_s", "s"),
    ("fixing.SchedulePlan.subproblem.builds", "count"),
    ("fixing.SchedulePlan.subproblem.self_s", "s"),
    ("fixing.subproblem.distinct_ratio", "ratio"),
    ("fixing.FixingSchedule.init.calls", "count"),
    ("graph.Cadmg.init.calls", "count"),
    ("graph.Cadmg.init.self_s", "s"),
    ("graph.topological_order.calls", "count"),
    ("graph.topological_order.self_s", "s"),
    ("projection.latent_project_out.calls", "count"),
    ("projection.latent_project_out.self_s", "s"),
    ("separation.m_separated.calls", "count"),
    ("separation.m_separated.self_s", "s"),
    ("kernel.canonicalize.calls", "count"),
    ("kernel.canonicalize.self_s", "s"),
    ("kernel.evaluate_numeric.calls", "count"),
    ("kernel.evaluate_numeric.self_s", "s"),
    ("kernel.NamedTable.join.calls", "count"),
    ("kernel.NamedTable.join.cells", "cells"),
    ("kernel.NamedTable.join.self_s", "s"),
    ("oracle.derive_observed_law.cells", "cells"),
    ("oracle.derive_observed_law.self_s", "s"),
    ("oracle.sample_full_law.self_s", "s"),
    ("oracle.target_law.self_s", "s"),
    ("missing.colluder_scan.self_s", "s"),
    ("missing.assemble_target_law.self_s", "s"),
    ("causal.identify_interventional.self_s", "s"),
    ("gfile.parse_graph_file.self_s", "s"),
    ("model.validate_md_dag.self_s", "s"),
    ("oracle.colluder_witness.self_s", "s"),
]

# Reported but left out of the result line: on one of the workloads the
# driver runs, fixtures or verify-octet, these layers do no work at all, so
# they would read zero on every run.  The sweep's report still has them.
REPORT_ONLY = frozenset({
    "identify.searches_exhausted",      # no fixture search is exhausted
    "oracle.target_law.self_s",         # fixtures checks use their own product
    "missing.colluder_scan.self_s",     # verify-octet runs no full-law query
    "causal.identify_interventional.self_s",
    "oracle.colluder_witness.self_s",
})

# the octet target search on the seed engine
OCTET_SEED_COUNTS = {
    "fixing.validate_schedule.calls": 1244,
    "fixing.SchedulePlan.subproblem.builds": 2060,
    "graph.Cadmg.init.calls": 11203,
    "projection.latent_project_out.calls": 2017,
    "separation.m_separated.calls": 1767,
}


def summarize(tr: Tracer, keep=lambda phase, query: True) -> dict[str, float]:
    """Per-layer totals over the spans whose (phase, query) labels pass
    ``keep``; the self time of a span excludes its children."""
    self_s = tr.self_times()
    calls: dict[str, int] = defaultdict(int)
    secs: dict[str, float] = defaultdict(float)
    validated = 0
    # distinct cone keys within one query (one identify_target or
    # identify_full call): what a per-query subproblem memo would build
    searches: dict[tuple, set] = defaultdict(set)
    builds = 0
    cache: dict[tuple[int, int], bool] = {}
    for i in range(len(tr)):
        key = (tr.phase[i], tr.query[i])
        ok = cache.get(key)
        if ok is None:
            ok = cache[key] = bool(keep(tr.label_value(key[0]),
                                        tr.label_value(key[1])))
        if not ok:
            continue
        name = tr.span_name(i)
        calls[name] += 1
        secs[name] += self_s[i]
        if name == "fixing.validate_schedule" and tr.parent[i] >= 0 and \
                tr.span_name(tr.parent[i]) == "identify.identify_indicator":
            validated += 1
        elif name == "fixing.SchedulePlan.subproblem":
            builds += 1
            searches[(tr.phase[i], tr.op[i], tr.query[i])].add(tr.tag[i])
    counters: dict[str, float] = defaultdict(float)
    for (counter, phase, query), value in tr.counters.items():
        if keep(tr.label_value(phase), tr.label_value(query)):
            counters[counter] += value

    out: dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[base]
        elif kind == "self_s":
            out[metric] = secs[base]
        elif kind == "builds":
            out[metric] = calls[base]
        elif kind == "cells":
            out[metric] = counters[metric]
    out["identify.schedules_validated"] = validated
    out["identify.searches_exhausted"] = counters["identify.identify_indicator.exhausted"]
    out["identify.fast_path_hits"] = counters["identify.identify_indicator.fast_path"]
    distinct = sum(len(keys) for keys in searches.values())
    out["fixing.subproblem.distinct_ratio"] = distinct / builds if builds else 0.0
    return out
