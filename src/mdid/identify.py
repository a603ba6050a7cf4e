"""Identification of indicator propensities, the target law, and the full law
by searching for valid fixing schedules.

The search is obstruction-driven.  It starts from the empty schedule for the
queried indicator, validates, and turns each violated condition into repair
moves: fix the offending indicator in an earlier class, hide the triggering
censored variable (latent projection), close a class under its in-district
descendants (set classes), order two unordered classes of a cone, or, as a
last resort, fix non-indicator vertices.
States are explored best-first by (class count, hidden count, member count,
canonical text), so the first valid schedule found is minimal in that order
and the emitted functional is reproducible.  Budget exhaustion yields the
verdict "unknown" -- never "not identified": only the collider certificate
licenses that claim, and only for the full law.

The target and full-law queries share one loop over the sorted indicators
and stop at the first propensity that is not identified.  A full-law search
accepts a schedule only when its propensity passes
``missing.full_law_obstructions``, the check the full law's assembly makes,
so the assembly of identified propensities never refuses them.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from functools import cached_property

from . import kernel as K
from .fixing import (FixError, FixingSchedule, SchedulePlan, Violation,
                     validate_schedule)
from .kernel import Expr
from .missing import (ancestral_precondition, ancestral_schedule,
                      assemble_full_law, assemble_target_law, colluder_scan,
                      full_law_obstructions)
from .model import MdDag


@dataclass
class SearchBudget:
    max_set_size: int = 4
    max_latent_subsets: int = 128
    max_schedules: int = 3000
    # wall-clock deadline in seconds; off by default so that only the
    # schedule and latent-subset budgets decide a verdict
    time_limit: float = math.inf

    def __post_init__(self):
        counts = (self.max_set_size, self.max_latent_subsets, self.max_schedules)
        if not all(isinstance(n, int) and not isinstance(n, bool) for n in counts):
            raise ValueError("budget counts must be ints")
        # `not time_limit > 0` also rejects NaN; math.inf stays valid
        if min(counts) <= 0 or not self.time_limit > 0:
            raise ValueError("budget fields must be positive")


@dataclass
class IndicatorResult:
    indicator: str
    status: str                      # "identified" | "unknown"
    propensity: Expr | None
    schedule: FixingSchedule | None
    transcript: list[str]


@dataclass
class IdReport:
    query: str
    status: str                      # "identified" | "not-identified" | "unknown"
    functional: object | None
    propensities: dict[str, Expr]
    schedules: dict[str, FixingSchedule]
    transcript: list[str]
    certificate: tuple[str, str] | None = None


# ---------------------------------------------------------------------------
# state representation
# ---------------------------------------------------------------------------

ClassKey = frozenset


@dataclass(frozen=True)
class SearchState:
    """A schedule under construction: its classes, the order edges between
    them, and the censored variables kept latent."""

    classes: frozenset[ClassKey]
    edges: frozenset[tuple[ClassKey, ClassKey]]
    hidden: frozenset[str]

    @cached_property
    def key(self) -> str:
        """Canonical text; the last tie-break of the search order."""
        cbit = ";".join(",".join(sorted(c)) for c in sorted(self.classes, key=sorted))
        ebit = ";".join(",".join(sorted(a)) + ">" + ",".join(sorted(b))
                        for a, b in sorted(self.edges,
                                           key=lambda e: (sorted(e[0]), sorted(e[1]))))
        hbit = ",".join(sorted(self.hidden))
        return f"[{cbit}][{ebit}][{hbit}]"


def _priority(md: MdDag, state: SearchState) -> tuple:
    non_indicator = sum(1 for c in state.classes for m in c if m not in md.indicators)
    return (len(state.classes) + 3 * non_indicator, len(state.hidden),
            sum(len(c) for c in state.classes), state.key)


def _schedule_from_state(md: MdDag, state: SearchState, target: str,
                         forbid: frozenset[str]) -> FixingSchedule | None:
    """The state's schedule, with every class ordered before the target's
    singleton class, which every search state holds; None when the order has
    a cycle."""
    ordered = sorted(state.classes, key=sorted)
    idx = {c: i for i, c in enumerate(ordered)}
    order = {(idx[a], idx[b]) for a, b in state.edges}
    fi = idx[frozenset({target})]
    for c, i in idx.items():
        if i != fi:
            order.add((i, fi))
    try:
        probe = FixingSchedule(tuple(ordered), tuple(order))
    except FixError:
        return None
    visible_base = md.truths - state.hidden - forbid
    proms = []
    for k in range(probe.n):
        rendered = set()
        for j in probe.cone(k):
            for m in probe.classes[j]:
                if m in md.indicators:
                    rendered.add(md.triple_of(m).truth)
                elif m in md.truths:
                    rendered.add(m)
        proms.append((visible_base | rendered) - forbid)
    return FixingSchedule(tuple(ordered), tuple(order), tuple(proms))


def _successors(md: MdDag, state: SearchState, sched: FixingSchedule,
                viol: Violation, target: str,
                forbid: frozenset[str]) -> list[SearchState]:
    """Repair moves for the violation.  A move may close a cycle in the
    order; _schedule_from_state rejects such a state when it is popped."""
    classes, edges, hidden = state.classes, state.edges, state.hidden
    out: list[SearchState] = []
    k = viol.class_index
    zk = sched.classes[k] if k is not None else frozenset({target})

    def class_of(member: str):
        for c in classes:
            if member in c:
                return c
        return None

    def add_before(member: str):
        holder = class_of(member)
        if holder == zk:
            return
        if holder is None:
            if member in md.proxies:
                return
            nc = frozenset({member})
            out.append(SearchState(classes | {nc}, edges | {(nc, zk)}, hidden))
        elif (holder, zk) not in edges:
            out.append(SearchState(classes, edges | {(holder, zk)}, hidden))

    def hide(truth: str):
        if truth in hidden:
            return
        if any(truth in c for c in classes):
            return
        out.append(SearchState(classes, edges, hidden | {truth}))

    def nonindicator_candidates():
        """Last-resort repairs: fix fully observed or censored ancestors."""
        g = md.graph
        anc = g.ancestors(zk)
        for c in sorted((md.observed | md.truths) & anc - zk):
            add_before(c)

    if viol.condition == "ii":
        for m in viol.vertices:
            if m in md.indicators:
                hide(md.triple_of(m).truth)
    elif viol.condition == "iii":
        for m in viol.vertices:
            if m in md.indicators:
                add_before(m)
        for m in viol.vertices:
            if m in md.indicators:
                hide(md.triple_of(m).truth)
        nonindicator_candidates()
    elif viol.condition == "i":
        g = md.graph
        kids = sorted(g.children(zk) - md.proxies)
        for s in viol.vertices:
            for c in kids:
                if c == s or s in g.descendants([c]):
                    add_before(c)
        grow = set(zk) | set(viol.vertices)
        if all(v not in md.proxies for v in grow):
            merged = set(grow)
            changed = True
            while changed:
                changed = False
                for c in classes:
                    if c & merged and not c <= merged:
                        merged |= c
                        changed = True
            if target not in merged:
                newc = frozenset(merged)
                ncl = {c for c in classes if not c & merged} | {newc}
                ned = set()
                for a, b in edges:
                    a2 = newc if a & merged else a
                    b2 = newc if b & merged else b
                    if a2 != b2:
                        ned.add((a2, b2))
                out.append(SearchState(frozenset(ncl), frozenset(ned), hidden))
    elif viol.condition == "cone":
        # either order of the two classes writes one denominator after the
        # other class is fixed
        a, b = (class_of(m) for m in viol.vertices)
        for first, then in ((a, b), (b, a)):
            out.append(SearchState(classes, edges | {(first, then)}, hidden))
    elif viol.condition in ("observability", "full"):
        for u in viol.vertices:
            if u in md.truths:
                add_before(md.triple_of(u).indicator)
        for u in viol.vertices:
            if u in md.truths:
                hide(u)
        for u in viol.vertices:
            if u in md.truths and u not in forbid:
                add_before(u)
        nonindicator_candidates()
    return out


def identify_indicator(md: MdDag, indicator: str,
                       budget: SearchBudget | None = None,
                       full_mode: bool = False) -> IndicatorResult:
    """Search for a valid fixing schedule whose final class is the indicator;
    emit the final class denominator as the identified propensity.

    With ``full_mode`` the propensity must also pass
    ``missing.full_law_obstructions``, and the censored variables of the
    indicator's indicator parents are never promoted.
    """
    budget = budget or SearchBudget()
    if indicator not in md.indicators:
        raise ValueError(f"{indicator!r} is not a missingness indicator")
    forbid = frozenset()
    if full_mode:
        forbid = frozenset(md.triple_of(u).truth for u in
                           md.graph.parents([indicator]) & md.indicators)
    t0 = time.monotonic()
    transcript: list[str] = []
    attempts = 0

    def finish(sched: FixingSchedule, plan: SchedulePlan, fi: int,
               q: Expr) -> IndicatorResult:
        transcript.append(f"{indicator}: schedule {sched.describe()}")
        hidden_truths = md.truths - sched.promotions[fi]
        if hidden_truths:
            transcript.append(
                f"{indicator}: censored variables treated as latent: "
                f"{sorted(hidden_truths)}")
        for note in plan.notes:
            transcript.append(f"{indicator}: {note}")
        for t in md.triples:
            if q.pinned().get(t.indicator) == 1 and t.proxy in (q.free() | q.contexts()):
                transcript.append(
                    f"{indicator}: {t.truth} read off proxy {t.proxy} under "
                    f"{t.indicator}=1")
        transcript.append(f"{indicator}: propensity {K.render(q, 'sexpr')}")
        return IndicatorResult(indicator, "identified", q, sched, transcript)

    def try_schedule(sched: FixingSchedule):
        """Run the schedule.  Returns its violation (None when it is valid),
        its plan, and the index and denominator of the indicator's class
        (None when the plan failed)."""
        nonlocal attempts
        attempts += 1
        ok, viol, plan = validate_schedule(md, sched)
        if not ok:
            return viol, plan, None, None
        fi = next(i for i, c in enumerate(sched.classes) if indicator in c)
        q = plan.denominators[fi]
        if full_mode:
            viol = full_law_obstructions(md, indicator, q)
        return viol, plan, fi, q

    # fast path: the ancestrality-induced schedule
    if not full_mode and ancestral_precondition(md):
        sched = ancestral_schedule(md, indicator)
        viol, plan, fi, q = try_schedule(sched)
        if viol is None:
            transcript.append(f"{indicator}: ancestral fast path")
            return finish(sched, plan, fi, q)
        transcript.append(f"{indicator}: ancestral fast path failed: {viol}")

    start = SearchState(frozenset({frozenset({indicator})}), frozenset(), forbid)
    heap: list[tuple[tuple, SearchState]] = [(_priority(md, start), start)]
    seen = {start.key}
    hidden_seen = {forbid}

    while heap:
        if attempts >= budget.max_schedules:
            transcript.append(f"{indicator}: budget exhausted after {attempts} "
                              f"schedules")
            break
        if time.monotonic() - t0 > budget.time_limit:
            transcript.append(f"{indicator}: budget exhausted after {attempts} "
                              f"schedules: deadline of {budget.time_limit:g} s "
                              f"reached")
            break
        _, state = heapq.heappop(heap)
        sched = _schedule_from_state(md, state, indicator, forbid)
        if sched is None:
            continue
        if any(len(c) > budget.max_set_size for c in sched.classes):
            continue
        viol, plan, fi, q = try_schedule(sched)
        if viol is None:
            return finish(sched, plan, fi, q)
        transcript.append(
            f"{indicator}: {sched.describe()} hidden={sorted(state.hidden)} -> "
            f"({viol.condition}) {viol.detail}")
        for nxt in _successors(md, state, sched, viol, indicator, forbid):
            if nxt.key in seen:
                continue
            if nxt.hidden not in hidden_seen and len(hidden_seen) >= budget.max_latent_subsets:
                continue
            hidden_seen.add(nxt.hidden)
            seen.add(nxt.key)
            heapq.heappush(heap, (_priority(md, nxt), nxt))
    else:
        transcript.append(f"{indicator}: search space drained after {attempts} schedules")

    return IndicatorResult(indicator, "unknown", None, None, transcript)


# ---------------------------------------------------------------------------
# whole-law queries
# ---------------------------------------------------------------------------


def _each_indicator(md: MdDag, query: str, budget: SearchBudget | None,
                    transcript: list[str]) -> IdReport:
    """Identify every indicator's propensity in sorted order, for the full
    law when ``query`` is "full".  The report is "unknown" at the first
    indicator that is not identified, else "identified" without a functional
    yet."""
    full_mode = query == "full"
    props: dict[str, Expr] = {}
    scheds: dict[str, FixingSchedule] = {}
    for r in md.sorted_indicators():
        res = identify_indicator(md, r, budget, full_mode)
        transcript += res.transcript
        if res.status != "identified":
            transcript.append(f"{r}: unknown; "
                              f"{'full-law' if full_mode else 'target'} verdict unknown")
            return IdReport(query, "unknown", None, props, scheds, transcript)
        props[r] = res.propensity
        scheds[r] = res.schedule
    return IdReport(query, "identified", None, props, scheds, transcript)


def identify_target(md: MdDag, budget: SearchBudget | None = None) -> IdReport:
    """Identify every indicator propensity, then assemble the target law; the
    verdict is never "not-identified" (no completeness claim is available)."""
    transcript: list[str] = []
    if ancestral_precondition(md):
        transcript.append("ancestral precondition holds: fast-path schedules")
    report = _each_indicator(md, "target", budget, transcript)
    if report.status == "identified":
        report.functional = assemble_target_law(md, report.propensities)
        transcript.append("target law: all-observed slice divided by the "
                          "propensity product; proxies renamed to censored "
                          "variables under R=1")
    return report


def identify_full(md: MdDag, budget: SearchBudget | None = None) -> IdReport:
    """The collider certificate's "not-identified", else every propensity
    identified for the full law and multiplied back in.  Each propensity has
    passed ``full_law_obstructions`` in its search, so assembly cannot
    refuse it."""
    pairs = colluder_scan(md)
    if pairs:
        ri, rj = pairs[0]
        return IdReport("full", "not-identified", None, {}, {}, [
            f"collider certificate: {rj} and its censored variable are both "
            f"parents of {ri}; the full law is not identified"],
            certificate=(ri, rj))
    report = _each_indicator(md, "full", budget, [])
    if report.status == "identified":
        report.functional = assemble_full_law(md, report.propensities)
    return report
