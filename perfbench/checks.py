"""Output checks whose references do not come from the code under test.

* Verdict references: a hand-written table for the fixtures, and for the full
  law the completeness result of Nabi, Bhattacharya & Shpitser (ICML 2020):
  the full law of a missing-data DAG is identified iff no indicator has its
  own censored variable as a parent (self-censoring) and no colluder exists
  (an indicator R_i with both R_j and X_j(1) as parents).  Both are read off
  the graph text by this module's own parser.
* Numeric references: the true target law and full law are products of the
  sampled conditional tables, contracted here with ``numpy.einsum``.  The
  engine's functional is evaluated on the observed law and must agree within
  TOL on every cell; an undefined cell is a failure.
* Certificates: a colluder pair must be a colluder of the edge list, and its
  two-law witness must agree on the observed law and differ on the full law.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import traceback
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-9
WITNESS_GAP = 1e-3
NUMERIC_TRIALS = 3
# Dense tables the checks may build.  The observed law of k censored
# variables and n observed binary variables has 3^k 2^k 2^n cells (about 3.4M
# at k = 8, n = 1); the witness builds the joint over every variable, 2^k
# times more (6M at k = 6, n = 1; 72M at k = 7).
OBSERVED_CELLS_MAX = 4_000_000
WITNESS_CELLS_MAX = 8_000_000


@dataclass
class Spec:
    """A model read from graph-file text, independently of mdid's parser."""

    text: str
    missing: list[str] = field(default_factory=list)
    observed: list[str] = field(default_factory=list)
    directed: list[tuple[str, str]] = field(default_factory=list)
    bidirected: list[tuple[str, str]] = field(default_factory=list)

    @staticmethod
    def parse(text: str) -> "Spec":
        spec = Spec(text)
        for raw in text.splitlines():
            tok = raw.split("#", 1)[0].split()
            if not tok:
                continue
            if tok[0] == "var":
                (spec.missing if tok[2] == "missing" else spec.observed).append(tok[1])
            elif tok[2] == "->":
                spec.directed.append((tok[1], tok[3]))
            else:
                spec.bidirected.append((tok[1], tok[3]))
        return spec

    @staticmethod
    def truth(base: str) -> str:
        return base + "(1)"

    @staticmethod
    def indicator(base: str) -> str:
        return "R" + base[1:] if re.fullmatch(r"X\d+", base) else "R_" + base

    def parents(self, v: str) -> set[str]:
        out = {a for a, b in self.directed if b == v}
        for base in self.missing:
            if v == base:
                out |= {self.truth(base), self.indicator(base)}
        return out

    @property
    def k(self) -> int:
        return len(self.missing)

    def colluders(self) -> list[tuple[str, str]]:
        pairs = []
        for bi in self.missing:
            pa = self.parents(self.indicator(bi))
            for bj in self.missing:
                if bj != bi and self.indicator(bj) in pa and self.truth(bj) in pa:
                    pairs.append((self.indicator(bi), self.indicator(bj)))
        return sorted(pairs)

    def self_censoring(self) -> list[str]:
        return [self.indicator(b) for b in self.missing
                if self.truth(b) in self.parents(self.indicator(b))]

    def full_law_identified(self) -> bool:
        return not self.colluders() and not self.self_censoring()

    def observed_cells(self) -> int:
        return 6 ** self.k * 2 ** len(self.observed)

    def joint_cells(self) -> int:
        return 12 ** self.k * 2 ** len(self.observed)

    def substantive(self) -> list[str]:
        return [self.truth(b) for b in self.missing] + list(self.observed)

    def indicators(self) -> list[str]:
        return [self.indicator(b) for b in self.missing]


# ---------------------------------------------------------------------------
# dense references
# ---------------------------------------------------------------------------


@dataclass
class Tab:
    dims: tuple[str, ...]
    domains: dict[str, tuple]
    data: np.ndarray

    def at(self, name: str, value) -> "Tab":
        """The slice at name = value, without that axis."""
        ax = self.dims.index(name)
        dims = self.dims[:ax] + self.dims[ax + 1:]
        return Tab(dims, {d: self.domains[d] for d in dims},
                   np.take(self.data, self.domains[name].index(value), axis=ax))


def _cpt_of(spec: Spec, factors, v: str):
    want = {v} | spec.parents(v)
    for f in factors:
        if set(f.dims) == want:
            return f
    raise AssertionError(f"no conditional table for {v!r} over {sorted(want)}")


def contract(factors, keep: list[str]) -> tuple[tuple[str, ...], dict, np.ndarray]:
    """Multiply the factors and sum out every axis outside keep."""
    ids: dict[str, int] = {}
    domains: dict[str, tuple] = {}
    operands: list = []
    for f in factors:
        operands += [f.data, [ids.setdefault(d, len(ids)) for d in f.dims]]
        domains.update(f.domains)
    data = np.einsum(*operands, [ids[d] for d in keep], optimize="greedy")
    return tuple(keep), {d: tuple(domains[d]) for d in keep}, data


def law_reference(spec: Spec, full, kind: str):
    """True target law (substantive variables) or full law (plus indicators)
    of a factored full law: the product of the variables' own tables."""
    names = spec.substantive() + (spec.indicators() if kind == "full" else [])
    return contract([_cpt_of(spec, full.factors, v) for v in names], names)


def table_error(reference, got) -> tuple[float, int]:
    """(max abs difference, undefined cells) of a NamedTable against a
    (dims, domains, data) reference; inf on a missing axis or a domain
    mismatch.  Axes of ``got`` the reference lacks are contexts: every slice
    along them must equal the reference."""
    dims, domains, data = reference
    if not set(dims) <= set(got.dims) or any(
            tuple(got.domains[d]) != domains[d] for d in dims):
        return math.inf, 0
    extra = [d for d in got.dims if d not in dims]
    aligned = np.transpose(got.data, [got.dims.index(d) for d in (*dims, *extra)])
    undefined = int(np.isnan(aligned).sum())
    if undefined:
        return math.inf, undefined
    ref = np.reshape(data, data.shape + (1,) * len(extra))
    return (float(np.max(np.abs(aligned - ref))) if aligned.size else 0.0), 0


def numeric_error(spec: Spec, oracle, md, functional, kind: str,
                  seed: int) -> tuple[float, int]:
    """Worst error of the functional over NUMERIC_TRIALS sampled laws."""
    worst, undefined = 0.0, 0
    for t in range(NUMERIC_TRIALS):
        full = oracle.sample_full_law(md, 2, seed + t)
        got = functional.evaluate(oracle.derive_observed_law(md, full))
        err, undef = table_error(law_reference(spec, full, kind), got)
        worst, undefined = max(worst, err), undefined + undef
    return worst, undefined


def witness_gaps(spec: Spec, law1, law2) -> tuple[float, float]:
    """(observed-law gap, full-law gap) of a witness pair."""
    observed = spec.indicators() + list(spec.missing) + list(spec.observed)
    o1 = contract(law1.factors, observed)[2]
    o2 = contract(law2.factors, observed)[2]
    f1 = law_reference(spec, law1, "full")[2]
    f2 = law_reference(spec, law2, "full")[2]
    return float(np.max(np.abs(o1 - o2))), float(np.max(np.abs(f1 - f2)))


def interventional_error(spec: Spec, mdid, expr, outcome: str,
                         treatment: tuple[str, object], seed: int) -> float:
    """p(outcome | do(treatment)) from the engine's expression against the
    truncated factorization of a DAG that makes each bidirected edge an
    explicit confounder."""
    names = list(spec.observed)
    edges = list(spec.directed)
    for a, b in spec.bidirected:
        u = f"U_{a}_{b}"
        names.append(u)
        edges += [(u, a), (u, b)]
    worst = 0.0
    a, val = treatment
    for t in range(NUMERIC_TRIALS):
        law = mdid.oracle.sample_dag_law(mdid.graph.Cadmg(names, edges), 2, seed + t)
        got = mdid.kernel.evaluate_numeric(expr, law.dense(spec.observed, name="p"))
        kept = []
        for f in law.factors:
            child = next(v for v in f.dims
                         if set(f.dims) == {v} | {p for p, c in edges if c == v})
            if child == a:
                continue
            tab = Tab(f.dims, f.domains, f.data)
            kept.append(tab.at(a, val) if a in f.dims else tab)
        worst = max(worst, table_error(contract(kept, [outcome]), got)[0])
    return worst


# ---------------------------------------------------------------------------
# outcomes
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """One query's result, reduced to what the checks and the digest read."""

    model: str
    query: str                      # "target" | "full" | "interventional"
    status: str
    certificate: tuple[str, str] | None
    schedules: tuple[tuple[str, str], ...]
    functional: str                 # s-expression, "" when none
    seconds: float
    report: object = field(repr=False, default=None)

    def key(self) -> tuple:
        return (self.model, self.query, self.status,
                list(self.certificate) if self.certificate else None,
                [list(s) for s in self.schedules], self.functional)


def digest(outcomes) -> str:
    """Hash of the sorted distinct (model, query, status, certificate,
    schedules, functional) tuples."""
    keys = sorted({json.dumps(o.key()) for o in outcomes})
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]


# an expected-verdict entry whose certificate may be any colluder pair
ANY = "any"

_EXHAUSTED = re.compile(r"budget exhausted after (\d+) schedules")


def clock_stops(report, max_schedules: int) -> int:
    """Searches in the transcript that stopped before spending the schedule
    budget: only the wall-clock limit ends a search that way."""
    return sum(1 for line in report.transcript
               for m in [_EXHAUSTED.search(line)]
               if m and int(m.group(1)) < max_schedules)


class Checker:
    """Checks outcomes once per distinct output and counts coverage."""

    def __init__(self, mdid, specs: dict[str, Spec], seed: int,
                 max_schedules: int, expected: dict | None = None,
                 treatment: tuple[str, object] | None = None):
        self.mdid = mdid
        self.treatment = treatment
        self.specs = specs
        self.seed = seed
        self.max_schedules = max_schedules
        self.expected = expected or {}
        self.memo: dict[str, list[str]] = {}
        self.counts = {"numeric_verified": 0, "unverified": 0, "witnessed": 0,
                       "witness_skipped": 0, "theory_undecided": 0,
                       "certificates": 0}
        self.max_error = 0.0

    def check(self, out: Outcome) -> list[str]:
        key = json.dumps(out.key())
        if key not in self.memo:
            try:
                self.memo[key] = self._check(out)
            except Exception:
                last = traceback.format_exc().strip().splitlines()[-1]
                self.memo[key] = [f"{out.model}/{out.query}: check raised {last}"]
        return self.memo[key]

    def _numeric(self, spec: Spec, functional, kind: str) -> list[str]:
        if spec.observed_cells() > OBSERVED_CELLS_MAX:
            self.counts["unverified"] += 1
            return []
        err, undef = numeric_error(spec, self.mdid.oracle, functional.md,
                                   functional, kind, 7919 * self.seed + 101)
        self.counts["numeric_verified"] += 1
        if err <= TOL:
            self.max_error = max(self.max_error, err)
            return []
        return [f"{kind} functional off by {err:.3g} ({undef} undefined cells)"]

    def _check(self, out: Outcome) -> list[str]:
        spec = self.specs[out.model]
        bad: list[str] = []
        want = self.expected.get((out.model, out.query))
        if want is not None and (out.status != want[0] or want[1] not in (
                ANY, out.certificate)):
            bad.append(f"expected {want}, got {(out.status, out.certificate)}")
        if out.status == "unknown":
            stops = clock_stops(out.report, self.max_schedules)
            if stops:
                bad.append(f"{stops} searches stopped by the clock")
        if out.query == "interventional":
            if out.status != "identified":
                bad.append("interventional query not identified")
            else:
                outcome, = out.report.expr.free()
                err = interventional_error(spec, self.mdid, out.report.expr,
                                           outcome, self.treatment,
                                           7919 * self.seed + 11)
                if err > TOL:
                    bad.append(f"interventional functional off by {err:.3g}")
                self.counts["numeric_verified"] += 1
        elif out.query == "target":
            if out.status == "not-identified":
                bad.append("target law reported not identified")
            elif out.status == "identified":
                bad += self._numeric(spec, out.report.functional, "target")
        elif out.query == "full":
            theory = spec.full_law_identified()
            if out.status == "unknown":
                self.counts["theory_undecided"] += 1
            elif (out.status == "identified") != theory:
                bad.append(f"full law {out.status}, completeness theory says "
                           f"{'identified' if theory else 'not identified'}")
            if out.status == "identified":
                bad += self._numeric(spec, out.report.functional, "full")
            elif out.status == "not-identified":
                bad += self._certificate(spec, out.certificate)
        return [f"{out.model}/{out.query}: {b}" for b in bad]

    def _certificate(self, spec: Spec, pair) -> list[str]:
        self.counts["certificates"] += 1
        if pair is None or tuple(pair) not in spec.colluders():
            return [f"certificate {pair} is not a colluder of the edge list"]
        if spec.joint_cells() > WITNESS_CELLS_MAX:
            self.counts["witness_skipped"] += 1
            return []
        md = self.mdid.gfile.parse_graph_file(spec.text)
        law1, law2 = self.mdid.oracle.colluder_witness(md, tuple(pair), seed=self.seed)
        obs_gap, full_gap = witness_gaps(spec, law1, law2)
        self.counts["witnessed"] += 1
        if obs_gap > TOL or full_gap < WITNESS_GAP:
            return [f"witness for {pair}: observed gap {obs_gap:.3g}, "
                    f"full gap {full_gap:.3g}"]
        return []
