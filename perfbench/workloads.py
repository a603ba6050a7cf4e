"""The benchmark's workloads over mdid's public API.

Each workload has a set-up, an op (the unit the closed loop times) and the
output checks for its ops.  ``label`` is called with a query name before each
call into mdid, so that a traced run can attribute spans to queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter as clock

from checks import ANY, TOL, Checker, Outcome, Spec, law_reference, table_error
from gen import sweep_pool

import mdid
from mdid import causal, fixtures, gfile, identify, kernel, oracle
from mdid.model import MdDag

# Verdicts depend only on the schedule and latent-subset budgets: the
# wall-clock limit is disabled, so a slow machine cannot turn a verdict
# into "unknown".
BUDGET = mdid.SearchBudget(time_limit=math.inf)

# the interventional query on the plain mixed-graph fixture
INTERVENTION = causal.InterventionQuery(frozenset({"Y"}), (("A", 0),))

# Fixture verdicts: every target law is identified; the full law only for
# crisscross and staggered_trio; colluder_pair carries the certificate
# (R2, R1).
FIXTURE_VERDICTS = {
    ("confounded_chain", "interventional"): ("identified", None),
    ("block_sequential", "full"): ("not-identified", ANY),
    ("crisscross", "full"): ("identified", None),
    ("staggered_trio", "full"): ("identified", None),
    ("latent_trio", "full"): ("not-identified", ANY),
    ("joint_quartet", "full"): ("not-identified", ANY),
    ("context_fix", "full"): ("not-identified", ANY),
    ("octet", "full"): ("not-identified", ANY),
    ("colluder_pair", "full"): ("not-identified", ("R2", "R1")),
}
for _name in ("block_sequential", "crisscross", "staggered_trio", "latent_trio",
              "joint_quartet", "context_fix", "octet", "colluder_pair"):
    FIXTURE_VERDICTS[(_name, "target")] = ("identified", None)


def _outcome(model: str, query: str, fn, md) -> Outcome:
    t0 = clock()
    rep = fn(md, BUDGET)
    seconds = clock() - t0
    return Outcome(
        model, query, rep.status, rep.certificate,
        tuple(sorted((r, s.describe()) for r, s in rep.schedules.items())),
        rep.functional.render("sexpr") if rep.functional is not None else "",
        seconds, rep)


def _queries(model: str, text: str, label) -> list[Outcome]:
    """Parse the model from text and run its queries."""
    label(f"{model}/parse")
    md = gfile.parse_graph_file(text)
    if not isinstance(md, MdDag):
        label(f"{model}/interventional")
        t0 = clock()
        res = causal.identify_interventional(md, INTERVENTION)
        seconds = clock() - t0
        return [Outcome(model, "interventional", res.status, None, (),
                        kernel.render(res.expr, "sexpr") if res.expr else "",
                        seconds, res)]
    label(f"{model}/target")
    target = _outcome(model, "target", identify.identify_target, md)
    label(f"{model}/full")
    full = _outcome(model, "full", identify.identify_full, md)
    return [target, full]


@dataclass
class Trial:
    error: float
    undefined: int
    law_seed: int
    table: object = None


@dataclass
class OpResult:
    outcomes: list[Outcome] = field(default_factory=list)
    trial: Trial | None = None


class Workload:
    """Set-up, op and output checks of one workload.  ``trace_ops`` is how
    many ops a traced run replays."""

    name: str
    trace_ops: int

    def __init__(self, seed: int):
        self.seed = seed

    def check(self, res: OpResult) -> list[str]:
        out = []
        for o in res.outcomes:
            out += self.checker.check(o)
        return out

    def final_checks(self, records) -> list[str]:
        return []

    def setup_outcomes(self) -> list[Outcome]:
        return []

    def info(self, records) -> dict:
        return {"checks": dict(self.checker.counts),
                "max_error": self.checker.max_error}


class Fixtures(Workload):
    """One op is one pass over every built-in fixture: target and full law
    for each missing-data fixture, the interventional query on the mixed
    graph."""

    name = "fixtures"
    trace_ops = 2

    def setup(self, label) -> None:
        self.models = []
        for name in fixtures.FIXTURE_NAMES:
            text = fixtures.fixture_text(name)
            label(f"{name}/parse")
            gfile.parse_graph_file(text)
            self.models.append((name, text))
        self.checker = Checker(mdid, {n: Spec.parse(t) for n, t in self.models},
                               self.seed, BUDGET.max_schedules,
                               FIXTURE_VERDICTS, INTERVENTION.treatments[0])

    def op(self, i: int, label) -> OpResult:
        res = OpResult()
        for name, text in self.models:
            res.outcomes += _queries(name, text, label)
        return res

    def check(self, res: OpResult) -> list[str]:
        seen = {(o.model, o.query) for o in res.outcomes}
        missing = sorted(set(FIXTURE_VERDICTS) - seen)
        return [f"no outcome for {m}" for m in missing] + super().check(res)


class Sweep(Workload):
    """One op is one seeded random model (k censored variables cycling
    through 4, 6, 8, 10; one observed variable; edge probability 0.3) with
    its target and full-law queries."""

    name = "sweep"
    trace_ops = 4

    def setup(self, label) -> None:
        self.pool = sweep_pool(self.seed)
        for name, _k, text in self.pool:
            label(f"{name}/parse")
            gfile.parse_graph_file(text)
        self.checker = Checker(mdid, {n: Spec.parse(t) for n, _k, t in self.pool},
                               self.seed, BUDGET.max_schedules)

    def op(self, i: int, label) -> OpResult:
        name, _k, text = self.pool[i % len(self.pool)]
        return OpResult(_queries(name, text, label))

    def info(self, records) -> dict:
        composition = []
        done = set()
        for r in records:
            if r.result is None or not r.result.outcomes:
                continue
            name = r.result.outcomes[0].model
            if name in done:
                continue
            done.add(name)
            spec = self.checker.specs[name]
            st = {o.query: o.status for o in r.result.outcomes}
            composition.append({
                "model": name, "k": spec.k, "edges": len(spec.directed),
                "target": st.get("target"), "full": st.get("full"),
                "theory_full": ("identified" if spec.full_law_identified()
                                else "not-identified")})
        return {**super().info(records), "composition": composition}


class VerifyOctet(Workload):
    """The octet target functional is identified during set-up; one op is
    one oracle trial: sample a full law, densify the observed law, evaluate
    the functional on it and compare with the enumerated target law."""

    name = "verify-octet"
    trace_ops = 20
    # trials whose evaluated table is kept and compared once more, after the
    # timed section, against this benchmark's own product of the tables
    rechecked = 3

    def setup(self, label) -> None:
        self.text = fixtures.fixture_text("octet")
        self.spec = Spec.parse(self.text)
        label("octet/parse")
        md = gfile.parse_graph_file(self.text)
        label("octet/target")
        self.outcome = _outcome("octet", "target", identify.identify_target, md)
        self.functional = self.outcome.report.functional

    def law_seed(self, i: int) -> int:
        return 1_000_003 * self.seed + i

    def op(self, i: int, label) -> OpResult:
        label("octet/parse")
        md = gfile.parse_graph_file(self.text)
        label("octet/trial")
        seed = self.law_seed(i)
        full = oracle.sample_full_law(md, 2, seed)
        got = self.functional.evaluate(oracle.derive_observed_law(md, full))
        truth = oracle.target_law(md, full)
        err, undef = table_error((truth.dims, truth.domains, truth.data), got)
        return OpResult(trial=Trial(err, undef, seed,
                                    got if i < self.rechecked else None))

    def check(self, res: OpResult) -> list[str]:
        t = res.trial
        if t.error <= TOL:
            return []
        return [f"trial with law seed {t.law_seed}: error {t.error:.3g}, "
                f"{t.undefined} undefined cells"]

    def final_checks(self, records) -> list[str]:
        out = []
        if self.outcome.status != "identified":
            out.append(f"octet target law {self.outcome.status}")
        md = gfile.parse_graph_file(self.text)
        for r in records:
            trial = r.result.trial if r.result is not None else None
            if trial is None or trial.table is None:
                continue
            ref = law_reference(self.spec, oracle.sample_full_law(md, 2, trial.law_seed),
                                "target")
            err, undef = table_error(ref, trial.table)
            if err > TOL:
                out.append(f"trial with law seed {trial.law_seed}: error "
                           f"{err:.3g} against the product of the tables")
        return out

    def setup_outcomes(self) -> list[Outcome]:
        return [self.outcome]

    def info(self, records) -> dict:
        errs = [r.result.trial.error for r in records if r.result is not None]
        return {"max_error": max(errs) if errs else None}


WORKLOADS = {w.name: w for w in (Fixtures, Sweep, VerifyOctet)}
