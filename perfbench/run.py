"""mdid benchmark: closed-loop timing of the identification engine's public API.

    python3 perfbench/run.py --workload fixtures --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One process runs one workload on one thread as a closed loop: the next op
starts only after the previous one returned.  The run sets up the workload
several times (the median is ``setup_s``), runs ops for ``--seconds``, then
checks every output against references that do not come from the code under
test.  It prints a report of every metric with its unit, writes it under
``perfbench/out/``, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 1`` the run afterwards sets up once more and replays the first
ops with every mdid layer wrapped by the span tracer, runs the checks traced,
and reports the per-layer metrics and the tracing overhead instead of the
end-to-end metrics.  ``--workload all`` runs every workload, each in its own
process, one after another.

The program under test is imported from ``src/`` next to this directory; the
run stops with an error, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import count
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter as clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
# The benchmark caps its own address space, so that a runaway allocation
# raises MemoryError and counts as a failure instead of exhausting the
# machine.
ADDRESS_SPACE_CAP = 3 * 2 ** 30
WORKLOAD_NAMES = ("fixtures", "sweep", "verify-octet")
# end-to-end metrics printed in the final line; the report holds the others
END_TO_END = (("setup_s", "s"), ("op_s_p50", "s"), ("op_s_tail", "s"),
              ("peak_rss_mb", "MB"))


@dataclass
class OpRecord:
    index: int
    seconds: float
    result: object
    error: str | None
    problems: list


def load_program():
    """Import mdid from this checkout's ``src`` on one thread; returns the
    seconds the import took."""
    src = ROOT / "src"
    if not (src / "mdid" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'mdid'} not found; run from a checkout of mdid")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(src), str(HERE)]
    t0 = clock()
    import mdid  # noqa: F401
    import workloads  # noqa: F401  (imports numpy and every mdid module used)
    seconds = clock() - t0
    if Path(mdid.__file__).resolve().parent != (src / "mdid").resolve():
        sys.exit(f"error: imported mdid from {mdid.__file__}, not from {src}")
    return seconds


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with at least ten ops
    beyond it.  With fewer than 21 ops that percentile lies below the median
    and is no tail, so the maximum (percentile 100) is reported instead."""
    v = sorted(values)
    n = len(v)
    if n < 21:
        return v[-1], 100.0
    i = n - 11
    return v[i], 100.0 * i / (n - 1)


def run_ops(wl, indices, label, seconds=None, tracer=None) -> tuple[list[OpRecord], float]:
    """Closed loop over the given op indices; stops after ``seconds`` when
    given.  An op that raises is recorded with its traceback."""
    records = []
    start = clock()
    for i in indices:
        if tracer is not None:
            tracer.set_op(i)
        t0 = clock()
        try:
            if tracer is not None:
                with tracer.span("bench.op"):
                    result, error = wl.op(i, label), None
            else:
                result, error = wl.op(i, label), None
        except Exception:
            result, error = None, traceback.format_exc()
        t1 = clock()
        records.append(OpRecord(i, t1 - t0, result, error, []))
        if seconds is not None and t1 - start >= seconds:
            break
    return records, clock() - start


def check_ops(wl, records: list[OpRecord]) -> int:
    """Check every op's outputs; returns the number of failed ops."""
    failed = 0
    for r in records:
        if r.error is None:
            r.problems = wl.check(r.result)
        if r.error is not None or r.problems:
            failed += 1
    return failed


def run_workload(args) -> dict:
    import_s = load_program()
    resource.setrlimit(resource.RLIMIT_AS,
                       (ADDRESS_SPACE_CAP, resource.getrlimit(resource.RLIMIT_AS)[1]))
    from checks import digest
    from layers import (LAYER_METRICS, OCTET_SEED_COUNTS, REPORT_ONLY,
                        TARGETS, summarize)
    from tracer import Tracer
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    quiet = lambda query: None  # noqa: E731
    setups = []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        t0 = clock()
        wl.setup(quiet)
        setups.append(clock() - t0)

    records, wall_s = run_ops(wl, count(), quiet, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "traced": bool(args.trace)}
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install(TARGETS)
        try:
            tracer.set_phase("setup")
            wl.setup(tracer.set_query)
            tracer.set_phase("timed")
            m = min(len(records), wl.trace_ops)
            traced, _ = run_ops(wl, range(m), tracer.set_query, tracer=tracer)
            tracer.set_phase("checks")
            tracer.set_query(None)
            check_ops(wl, traced)
            final_problems = wl.final_checks(records)
        finally:
            tracer.uninstall()
        traced_s = sum(r.seconds for r in traced)
        untraced_s = sum(r.seconds for r in records[:m])
        report["trace"] = {
            "replayed_ops": m, "spans": len(tracer),
            "traced_wall_s": traced_s, "untraced_wall_s": untraced_s,
            "overhead_s": traced_s - untraced_s,
            "overhead_share": (traced_s - untraced_s) / untraced_s,
            "same_outputs": digest(o for r in traced if r.result for o in r.result.outcomes)
            == digest(o for r in records[:m] if r.result for o in r.result.outcomes),
        }
    else:
        final_problems = wl.final_checks(records)

    failed = check_ops(wl, records)
    problems = [p for r in records for p in r.problems] + final_problems
    errors = [r.error for r in records if r.error is not None]
    op_times = [r.seconds for r in records]
    queries = [o for r in records if r.result for o in r.result.outcomes]
    unknown = [o.seconds for o in queries if o.status == "unknown"]
    outs = wl.setup_outcomes() + queries
    tail_s, tail_pct = tail(op_times)
    report["end_to_end"] = {
        "setup_s": {"value": import_s + statistics.median(setups), "unit": "s",
                    "import_s": import_s, "setups_s": setups},
        "wall_s": {"value": wall_s, "unit": "s"},
        "op_s_p50": {"value": statistics.median(op_times), "unit": "s"},
        "op_s_tail": {"value": tail_s, "unit": "s", "percentile": tail_pct,
                      "ops": len(op_times)},
        "exhausted_s_p50": {"value": statistics.median(unknown) if unknown else None,
                            "unit": "s", "queries": len(unknown)},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        "unknown_rate": {"value": len(unknown) / len(queries) if queries else 0.0,
                         "unit": "ratio", "queries": len(queries)},
        "failed_rate": {"value": failed / len(records), "unit": "ratio"},
    }
    report["op_times_s"] = op_times
    report["digest"] = digest(outs)
    seen: dict[tuple, set] = {}
    for o in queries:
        seen.setdefault((o.model, o.query), set()).add(json.dumps(o.key()))
    report["outputs_repeatable"] = all(len(v) == 1 for v in seen.values())
    report["info"] = wl.info(records)
    report["problems"] = problems[:50]
    report["errors"] = errors[:5]

    if tracer is not None:
        per_layer = summarize(tracer)
        phases = {ph: summarize(tracer, lambda p, q, ph=ph: p == ph)
                  for ph in ("setup", "timed", "checks")}
        report["per_layer"] = {k: {"value": per_layer[k], "unit": u}
                               for k, u in LAYER_METRICS}
        report["per_layer_by_phase"] = phases
        octet = summarize(tracer, lambda p, q: q == "octet/target"
                          and p == ("setup" if args.workload == "verify-octet" else "timed"))
        searches = 1 if args.workload == "verify-octet" else m
        if args.workload in ("fixtures", "verify-octet"):
            report["octet_selfcheck"] = {
                k: {"seed": v, "traced": octet[k] / searches,
                    "match": octet[k] == v * searches}
                for k, v in OCTET_SEED_COUNTS.items()}
        OUT.mkdir(exist_ok=True)
        report["spans_file"] = str((OUT / f"{args.workload}-seed{args.seed}-spans.tsv.gz")
                                   .relative_to(ROOT))
        tracer.write(ROOT / report["spans_file"])
        metrics = {k: v for k, v in report["per_layer"].items()
                   if k not in REPORT_ONLY}
        metrics["trace.overhead_s"] = {"value": report["trace"]["overhead_s"], "unit": "s"}
    else:
        metrics = {k: {"value": report["end_to_end"][k]["value"], "unit": u}
                   for k, u in END_TO_END}

    correct = failed == 0 and not final_problems
    report["result"] = {"correct": correct, "attempted": len(records),
                        "failed": failed, "metrics": metrics}
    return report


def print_report(report: dict) -> None:
    print(f"== {report['workload']} (seed {report['seed']}, {report['seconds']} s, "
          f"traced {report['traced']})")
    for k, m in report["end_to_end"].items():
        extra = {x: y for x, y in m.items() if x not in ("value", "unit")}
        shown = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {k:<18} {shown:>12} {m['unit']:<6} {json.dumps(extra) if extra else ''}")
    for key in ("digest", "outputs_repeatable", "info", "trace", "octet_selfcheck"):
        if key in report:
            print(f"  {key}: {json.dumps(report[key])}")
    for k, m in report.get("per_layer", {}).items():
        print(f"  {k:<42} {m['value']:>14.6g} {m['unit']}")
    for p in report["problems"]:
        print(f"  PROBLEM {p}")
    for e in report["errors"]:
        print("  ERROR " + e.strip().splitlines()[-1])


def run_all(args) -> int:
    results = {}
    for w in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results[w] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": m for w, r in results.items()
                    for k, m in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True, help="non-negative")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    if args.workload == "all":
        return run_all(args)
    report = run_workload(args)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
