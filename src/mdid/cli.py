"""Command line surface.

    mdid check    GRAPH            validate + collider certificate scan
    mdid identify GRAPH --query target|full|indicator:R2 [--latex]
    mdid verify   GRAPH --query ... --trials N --seed S --tol T --cardinality C
    mdid fixtures [--trials N --seed S --tol T --cardinality C]
                                   run every built-in example

GRAPH is a graph file path or ``fixture:NAME``.  Exit codes: 0 identified /
verified, 2 not identified, 3 unknown, 1 error (a usage error too).  Budget
fields may be overridden with MDID_BUDGET_MAX_SET_SIZE,
MDID_BUDGET_MAX_LATENT_SUBSETS, MDID_BUDGET_MAX_SCHEDULES and
MDID_BUDGET_TIME_LIMIT.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

from . import kernel as K
from .fixtures import FIXTURE_NAMES, load as load_fixture
from .gfile import parse_graph_file
from .graph import Cadmg
from .identify import IdReport, SearchBudget, identify_full, identify_target, \
    identify_indicator
from .missing import colluder_scan
from .model import MdDag
from . import oracle as O

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_IDENTIFIED = 2
EXIT_UNKNOWN = 3

_STATUS_CODE = {"identified": EXIT_OK, "not-identified": EXIT_NOT_IDENTIFIED,
                "unknown": EXIT_UNKNOWN}


def _budget_from_env() -> SearchBudget:
    """The default budget with each field set in the environment; a value
    that is not a positive number raises a ValueError naming its variable."""
    kw = {}
    for field, kind in (("max_set_size", int), ("max_latent_subsets", int),
                        ("max_schedules", int), ("time_limit", float)):
        env = "MDID_BUDGET_" + field.upper()
        text = os.environ.get(env)
        if text:
            try:
                kw[field] = kind(text)
                SearchBudget(**{field: kw[field]})
            except ValueError:
                what = "integer" if kind is int else "number of seconds"
                raise ValueError(f"{env}={text!r} is not a positive {what}") from None
    return SearchBudget(**kw)


def _load(spec: str) -> MdDag | Cadmg:
    if spec.startswith("fixture:"):
        return load_fixture(spec.split(":", 1)[1])
    with open(spec, "r", encoding="utf-8") as fh:
        return parse_graph_file(fh.read())


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for key, val in payload.items():
            if isinstance(val, list):
                print(f"{key}:")
                for item in val:
                    print(f"  {item}")
            else:
                print(f"{key}: {val}")


def _report_payload(report: IdReport, latex: bool) -> dict:
    fmt = "latex" if latex else "sexpr"
    payload: dict = {"query": report.query, "status": report.status}
    if report.certificate:
        payload["certificate"] = "(%s, %s)" % report.certificate
    if report.propensities:
        payload["propensities"] = [
            f"{r} = {K.render(q, fmt)}" for r, q in sorted(report.propensities.items())]
    if report.schedules:
        payload["schedules"] = [
            f"{r}: {s.describe()}" for r, s in sorted(report.schedules.items())]
    if report.functional is not None:
        payload["functional"] = report.functional.render(fmt)
    payload["transcript"] = list(report.transcript)
    return payload


def cmd_check(args) -> int:
    model = _load(args.graph)
    payload: dict = {"kind": type(model).__name__, "valid": True}
    code = EXIT_OK
    if isinstance(model, MdDag):
        pairs = colluder_scan(model)
        payload["colluders"] = [f"({a}, {b})" for a, b in pairs]
        if pairs:
            payload["full-law"] = "not identified (collider certificate)"
            code = EXIT_NOT_IDENTIFIED
    _emit(payload, args.json)
    return code


def _answer(args):
    """Load the model and answer ``--query``: the report, and a function of
    the sampling options that verifies its functional on sampled laws."""
    model = _load(args.graph)
    if not isinstance(model, MdDag):
        raise ValueError(f"{args.command} needs a missing-data model")
    budget = _budget_from_env()
    query = args.query
    if query == "target":
        report = identify_target(model, budget)
        return report, partial(O.verify_target_functional, model, report.functional)
    if query == "full":
        report = identify_full(model, budget)
        return report, partial(O.verify_full_functional, model, report.functional)
    if query.startswith("indicator:"):
        r = query.split(":", 1)[1]
        res = identify_indicator(model, r, budget)
        report = IdReport(query, res.status, None,
                          {r: res.propensity} if res.propensity is not None else {},
                          {r: res.schedule} if res.schedule is not None else {},
                          res.transcript)
        return report, partial(O.verify_indicator_functional, model, r, res.propensity)
    raise ValueError(f"unknown query {query!r}")


def cmd_identify(args) -> int:
    report, _ = _answer(args)
    _emit(_report_payload(report, args.latex), args.json)
    return _STATUS_CODE[report.status]


def cmd_verify(args) -> int:
    report, verify = _answer(args)
    if report.status != "identified":
        _emit({"status": report.status}, args.json)
        return _STATUS_CODE[report.status]
    rep = verify(trials=args.trials, seed=args.seed, cardinality=args.cardinality)
    ok = rep.ok(args.tol)
    _emit({"status": "verified" if ok else "failed",
           "trials": rep.trials,
           "max_error": f"{rep.max_error:.3e}",
           "tolerance": f"{args.tol:.1e}",
           "undefined_cells": rep.undefined_cells}, args.json)
    return EXIT_OK if ok else EXIT_ERROR


def cmd_fixtures(args) -> int:
    budget = _budget_from_env()
    failures = 0
    for name in FIXTURE_NAMES:
        model = load_fixture(name)
        if not isinstance(model, MdDag):
            print(f"{name}: mixed graph ({len(model.vertex_names)} vertices)")
            continue
        rt = identify_target(model, budget)
        rf = identify_full(model, budget)
        bits = [f"target={rt.status}", f"full={rf.status}"]
        if rf.certificate:
            bits.append("certificate=(%s, %s)" % rf.certificate)
        if rt.status == "identified" and args.trials:
            try:
                rep = O.verify_target_functional(model, rt.functional, trials=args.trials,
                                                 seed=args.seed, cardinality=args.cardinality)
            except ValueError as exc:
                print(f"error: {name}: {exc}", file=sys.stderr)
                return EXIT_ERROR
            bits.append(f"target_err={rep.max_error:.2e}")
            if not rep.ok(args.tol):
                failures += 1
        print(f"{name}: " + " ".join(bits))
    return EXIT_OK if failures == 0 else EXIT_ERROR


def _int_at_least(least: int, what: str):
    """An argparse type: an integer of at least ``least``."""
    def parse(text: str) -> int:
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"{what} must be at least {least}, not {n}")
        return n
    parse.__name__ = "int"      # argparse names the type in "invalid int value"
    return parse


def _tolerance(text: str) -> float:
    """A verification tolerance: finite and at least 0."""
    tol = float(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and at least 0, not {text}")
    return tol


def main(argv=None) -> int:
    top = argparse.ArgumentParser(prog="mdid", description=__doc__,
                                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a graph file")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("identify", help="emit an identifying functional")
    p.add_argument("graph")
    p.add_argument("--query", default="target")
    p.add_argument("--latex", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_identify)

    p = sub.add_parser("verify", help="identify, then check numerically")
    p.add_argument("graph")
    p.add_argument("--query", default="target")
    p.add_argument("--trials", type=_int_at_least(1, "trials"), default=100)
    p.add_argument("--seed", type=_int_at_least(0, "seed"), default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--cardinality", type=_int_at_least(2, "cardinality"), default=2)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("fixtures", help="run the built-in examples")
    # --trials 0 skips verification
    p.add_argument("--trials", type=_int_at_least(0, "trials"), default=20)
    p.add_argument("--seed", type=_int_at_least(0, "seed"), default=0)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--cardinality", type=_int_at_least(2, "cardinality"), default=2)
    p.set_defaults(fn=cmd_fixtures)

    try:
        args = top.parse_args(argv)
    except SystemExit as exc:   # argparse exits 2 on a usage error, 0 after --help
        return EXIT_ERROR if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except BrokenPipeError:
        return EXIT_OK
    # a bad input, and a law too large to verify (ExprError, OracleError)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
