"""The fixing operator: single vertices on a graph and kernel, and partial
order schedules of vertex sets over a missing-data model.

Schedule semantics.  A schedule is a partial order over disjoint classes of a
fix set.  Each class is processed in a subproblem built from *its own*
predecessor cone, never from a global sequential state: starting from the
full model graph, the cone's classes are fixed (arrowheads in, statuses),
leftover selection indicators are pinned to 1, censored variables promoted
for this class are kept visible (merged with their proxies once their
indicator is pinned), and the rest are latent projected out.  The class
denominator divides the cone kernel by one conditional per member, ordered
topologically: each member is conditioned on the class Markov blanket plus
the earlier members, with not-yet-available censored variables dropped after
an explicit m-separation check, and selection indicators pinned to 1.

Selected-to-1 markers propagate to later subproblems and are auto-conditioned
in every separation query; they are never fixable.

Validity is decided on graphs.  ``validate_schedule`` runs a schedule's
classes along its linear extension, where every class comes after its cone.
The graph step of a class first checks that its cone's classes can be fixed
in some order that leaves each earlier denominator valid (the cone
condition, ``SchedulePlan._check_cone``), then builds its cone's graph and runs every condition on it: the clash with
earlier selections (ii), monotone promotions, the
member and district conditions, (i), (iii), and the conditioning set of each
member.  Only once every class has passed does the run take the kernel
steps, in the same order: each canonicalizes its cone kernel and writes down
the class denominator, so kernels are written only for an accepted schedule.
The SchedulePlan is the record of the run: each class's r_z and denominator,
and the dropped-variable notes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import kernel as K
from .graph import Cadmg
from .kernel import Expr
from .model import MdDag
from .projection import latent_project_out
from .separation import m_separated


class FixError(ValueError):
    pass


# ---------------------------------------------------------------------------
# single-vertex fixing (the classical operator)
# ---------------------------------------------------------------------------


@dataclass
class FixStepResult:
    graph: Cadmg
    kernel: Expr
    denominator: Expr


def is_fixable_vertex(g: Cadmg, v: str) -> bool:
    """Fixable iff the vertex's descendants meet its district only at itself."""
    g._require([v])
    if v not in g.random_vertices:
        return False
    return g.descendants([v]) & g.district(v) == {v}


def _conditional(q: Expr, targets: Iterable[str], given: Iterable[str],
                 scope: frozenset[str]) -> Expr:
    """q(targets | given): sum out the scope's other variables, then divide
    by the targets' marginal.  Variables outside the scope, such as the
    contexts of a fixed kernel, pass through untouched."""
    ts = frozenset(targets)
    marg = K.marginalize(q, (scope - ts - frozenset(given)) & q.free())
    return K.quotient(marg, K.marginalize(marg, ts & marg.free()))


def fix_vertex(g: Cadmg, q: Expr, v: str) -> FixStepResult:
    """Divide by the vertex's blanket conditional and fix it in the graph.

    Marginalization is scoped by the graph's random vertices, never by the
    expression's syntactic variables: context axes of intermediate kernels
    must pass through untouched.
    """
    if not is_fixable_vertex(g, v):
        raise FixError(f"{v!r} is not fixable")
    mb = g.markov_blanket([v])
    random = g.random_vertices
    den = _conditional(q, {v}, mb & random, random)
    pins = {s: 1 for s in mb & g.selected_vertices}
    if pins:
        den = K.restrict_values(den, pins)
    return FixStepResult(g.with_statuses(fixed=[v]), K.quotient(q, den), den)


def fix_sequence(g: Cadmg, q: Expr, order: Sequence[str]) -> FixStepResult:
    """Compose single-vertex fixing along the given sequence."""
    den: Expr = K.One()
    for v in order:
        step = fix_vertex(g, q, v)
        g, q = step.graph, step.kernel
        den = K.product([den, step.denominator])
    return FixStepResult(g, q, den)


def fixable_sequence_to(g: Cadmg, target: frozenset[str]) -> list[str] | None:
    """Greedy search for a valid fixing sequence removing all random vertices
    outside target; None when stuck (the set is not reachable)."""
    out: list[str] = []
    rev = {v: i for i, v in enumerate(g.topological_order())}
    while True:
        todo = sorted(g.random_vertices - target, key=lambda v: (-rev[v], v))
        if not todo:
            return out
        for v in todo:
            if is_fixable_vertex(g, v):
                g = g.with_statuses(fixed=[v])
                out.append(v)
                break
        else:
            return None


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FixingSchedule:
    """Partial order over disjoint classes, each with a promotion set: the
    censored variables kept visible while the class is processed.

    Construction rejects cycles and computes, in one topological pass that
    always takes the smallest ready index, the linear extension and every
    strict predecessor cone.
    """

    classes: tuple[frozenset[str], ...]
    order: tuple[tuple[int, int], ...] = ()
    promotions: tuple[frozenset[str], ...] = ()
    _cones: tuple[frozenset[int], ...] = field(init=False, repr=False, compare=False)
    _linear: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(frozenset(c) for c in self.classes))
        object.__setattr__(self, "order", tuple(sorted(set(self.order))))
        proms = self.promotions or tuple(frozenset() for _ in self.classes)
        object.__setattr__(self, "promotions", tuple(frozenset(p) for p in proms))
        n = len(self.classes)
        if len(self.promotions) != n:
            raise FixError("one promotion set per class required")
        seen: set[str] = set()
        for c in self.classes:
            if not c:
                raise FixError("empty class")
            if seen & c:
                raise FixError("classes must be pairwise disjoint")
            seen |= c
        preds: list[list[int]] = [[] for _ in range(n)]
        succs: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.order:
            if not (0 <= i < n and 0 <= j < n) or i == j:
                raise FixError(f"bad order pair {(i, j)}")
            preds[j].append(i)
            succs[i].append(j)
        waiting = [len(p) for p in preds]
        ready = [i for i in range(n) if not waiting[i]]
        cones: list[frozenset[int]] = [frozenset()] * n
        linear: list[int] = []
        while ready:
            i = heapq.heappop(ready)
            linear.append(i)
            cones[i] = frozenset(preds[i]).union(*(cones[p] for p in preds[i]))
            for j in succs[i]:
                waiting[j] -= 1
                if not waiting[j]:
                    heapq.heappush(ready, j)
        if len(linear) != n:
            raise FixError("schedule order contains a cycle")
        object.__setattr__(self, "_cones", tuple(cones))
        object.__setattr__(self, "_linear", tuple(linear))

    @property
    def n(self) -> int:
        return len(self.classes)

    def cone(self, k: int) -> frozenset[int]:
        """Strict predecessor cone of class k."""
        return self._cones[k]

    def linear_extension(self) -> tuple[int, ...]:
        return self._linear

    def describe(self) -> str:
        bits = []
        for i in self.linear_extension():
            pred = sorted("{%s}" % ",".join(sorted(self.classes[j]))
                          for j in self.cone(i))
            name = "{%s}" % ",".join(sorted(self.classes[i]))
            bits.append(f"{name}<-[{';'.join(pred)}]" if pred else name)
        return " ".join(bits)


@dataclass
class Violation:
    condition: str          # "i" | "ii" | "iii" | "district" | "member" | "observability" | "structure" | "cone"
    class_index: int | None
    detail: str
    vertices: tuple[str, ...] = ()


class ScheduleInvalid(FixError):
    def __init__(self, violation: Violation):
        self.violation = violation
        super().__init__(f"condition ({violation.condition}) fails"
                         f" at class {violation.class_index}: {violation.detail}")


# ---------------------------------------------------------------------------
# schedule runs
# ---------------------------------------------------------------------------


class SchedulePlan:
    """The record of one run of a schedule over a model: by class index, the
    indicators each checked class selects (``r_z``) and, once the schedule
    is accepted, each denominator; and the dropped-variable ``notes``.
    Validity is decided on graphs: ``subproblem`` is a class's graph step,
    and its kernel step runs only once every class has passed.
    """

    def __init__(self, md: MdDag, sched: FixingSchedule):
        self.md = md
        self.sched = sched
        self.r_z: dict[int, frozenset[str]] = {}
        # by class index, the district of the class in its cone's graph
        self.districts: dict[int, frozenset[str]] = {}
        self.denominators: dict[int, Expr] = {}
        self.notes: list[str] = []
        # by class index, what its kernel step reads: the pinned indicators,
        # the observable random columns and the member conditionals
        self._steps: dict[int, tuple] = {}

    def subproblem(self, k: int) -> Cadmg:
        """The graph step of class k: build the cone's graph, check class k
        in it, record its r_z, notes and what its kernel step reads, and
        return the graph.  Every class of k's cone must have passed its
        graph step already.  Raises ScheduleInvalid on the first violated
        condition."""
        md = self.md
        self._check_cone(k)
        g, merged, pins_r = self._graph(k, self.sched.cone(k))
        mb = self._check_class(k, g)
        conds = self._member_conditionals(k, g, merged, mb, self.r_z[k])
        free = frozenset(md.triple_of(v).proxy if v in merged else v
                         for v in g.random_vertices
                         if v not in md.truths or v in merged)
        self._steps[k] = (pins_r, free, conds)
        return g

    def _kernel_step(self, k: int) -> None:
        """Write down class k's denominator: divide the cone kernel by one
        conditional per member.  Every class of k's cone must have its
        denominator already."""
        pins_r, free, conds = self._steps[k]
        q = self._kernel(self.sched.cone(k), pins_r)
        factors = []
        for m_col, cols, pins in conds:
            fac = _conditional(q, [m_col], (cols | set(pins)) & free, free)
            at = {r: 1 for r in pins
                  if r in fac.free() or r in fac.contexts() or r in fac.pinned()}
            factors.append(K.restrict_values(fac, at))
        self.denominators[k] = K.product(factors) if len(factors) > 1 else factors[0]

    def _check_cone(self, k: int) -> None:
        """Class k's cone kernel divides by the denominators of its classes,
        each written in its own cone's kernel.  That product is a kernel of
        the cone fixed one class at a time only if some order of the cone's
        classes, along the schedule's, writes each denominator before any
        class that meets its district is fixed: fixing a class outside a
        district leaves that district's conditionals as they are, fixing one
        inside changes them.  Two incomparable classes whose districts each
        meet the other, or a longer cycle of such demands, admit no order."""
        sched = self.sched
        cone = sorted(sched.cone(k))
        # first[j]: the classes that class j must come before, its
        # successors and the incomparable classes that meet its district
        first = {j: {i for i in cone if i != j and (
                     j in sched.cone(i) or (i not in sched.cone(j)
                                            and sched.classes[i] & self.districts[j]))}
                 for j in cone}
        for j in cone:
            for i in sorted(first[j]):
                if j in sched.cone(i):
                    continue
                seen, todo = {i}, [i]
                while todo:
                    for n in first[todo.pop()] - seen:
                        seen.add(n)
                        todo.append(n)
                if j in seen:
                    a, b = min(sched.classes[i]), min(sched.classes[j])
                    raise ScheduleInvalid(Violation(
                        "cone", k,
                        f"classes {sorted(sched.classes[j])} and "
                        f"{sorted(sched.classes[i])} are unordered, and no order "
                        f"of the cone writes each denominator before a class in "
                        f"its district is fixed", (a, b)))

    def _graph(self, k: int, cone: frozenset[int]):
        """The cone's graph for class k, its merged censored variables and
        its pinned indicators; checks the cone state against class k."""
        md, sched = self.md, self.sched
        fixed = frozenset().union(*(sched.classes[j] for j in cone))
        selected = frozenset().union(*(self.r_z[j] for j in cone)) - fixed
        clash = selected & sched.classes[k]
        if clash:
            raise ScheduleInvalid(Violation(
                "ii", k,
                f"members {sorted(clash)} were selected by earlier classes",
                tuple(sorted(clash))))
        visible = sched.promotions[k]
        # promotion sanity: monotone along the order
        for j in cone:
            extra = sched.promotions[j] - visible
            if extra:
                raise ScheduleInvalid(Violation(
                    "structure", k,
                    f"promotions not monotone: {sorted(extra)} visible at "
                    f"class {j} but not later", tuple(sorted(extra))))

        pins_r = (fixed | selected) & md.indicators
        g = md.graph.with_statuses(fixed=fixed, selected=selected)
        merged = frozenset(t.truth for t in md.triples if t.indicator in pins_r
                           and (t.truth in visible or t.truth in fixed))
        # a merged variable is read off its proxy; the proxy has no children,
        # so projecting it out just drops it
        hidden = (md.truths - visible - fixed) & g.random_vertices
        g = latent_project_out(g, hidden | {md.triple_of(u).proxy for u in merged})
        return g, merged, pins_r

    def _kernel(self, cone: frozenset[int], pins_r: frozenset[str]) -> Expr:
        """The observed law, pinned, over the cone's class denominators."""
        num = K.restrict_values(K.Atom("p", tuple(sorted(self.md.observed_columns))),
                                {r: 1 for r in pins_r})
        dens = []
        for j in sorted(cone):
            den = self.denominators[j]
            at = {r: 1 for r in pins_r
                  if r in den.free() or r in den.contexts()}
            dens.append(K.restrict_values(den, at))
        return K.quotient(num, K.product(dens)) if dens else num

    def _check_class(self, k: int, g: Cadmg):
        """The graph-only conditions on class k: its members, its district,
        conditions (i) and (iii).  Records its r_z, which condition (iii)
        tests, and returns its Markov blanket."""
        md = self.md
        z = self.sched.classes[k]
        for m in sorted(z):
            if m not in g:
                raise ScheduleInvalid(Violation(
                    "member", k, f"member {m!r} is not visible in the class "
                    f"subproblem (hidden or already removed)", (m,)))
            if m in md.proxies:
                raise ScheduleInvalid(Violation(
                    "member", k, f"proxy {m!r} cannot be fixed", (m,)))

        districts = {frozenset(g.district(m)) for m in z}
        if len(districts) > 1:
            raise ScheduleInvalid(Violation(
                "district", k, f"class {sorted(z)} spans multiple districts",
                tuple(sorted(z))))
        d_z = next(iter(districts))
        self.districts[k] = d_z

        stray = (g.descendants(z) & d_z) - z
        if stray:
            raise ScheduleInvalid(Violation(
                "i", k, f"descendants {sorted(stray)} of the class stay in its "
                f"district", tuple(sorted(stray))))

        mb = g.markov_blanket(z)
        rz = frozenset(
            md.triple_of(u).indicator
            for u in (z | mb) & md.truths
            if md.triple_of(u).indicator not in z)
        self.r_z[k] = rz
        test = ((g.selected_vertices | (rz & g.random_vertices)) - mb) - z
        if test:
            cset = mb - test
            if not m_separated(g, z, test, cset & (g.random_vertices | g.fixed_vertices)):
                raise ScheduleInvalid(Violation(
                    "iii", k,
                    f"{sorted(z)} not separated from {sorted(test)} given "
                    f"{sorted(mb)}", tuple(sorted(test))))
        return mb

    def _member_conditionals(self, k: int, g: Cadmg, merged: frozenset[str],
                             mb: frozenset[str], rz: frozenset[str]):
        """The conditional that divides out each member of class k, in
        topological order: (member column, conditioning columns, pins).  A
        member is given the blanket, the earlier members and the newly
        selected indicators; a censored variable is dropped from that set
        only when it is m-separated from the member, and is otherwise read
        off its proxy under a pinned indicator."""
        md = self.md
        rz_new = rz & g.random_vertices
        topo = {v: i for i, v in enumerate(g.topological_order())}
        members = sorted(self.sched.classes[k], key=lambda v: (topo[v], v))
        out = []
        for idx, m in enumerate(members):
            earlier = members[:idx]
            later = set(members[idx:])
            cond = set(mb) | set(earlier) | set(rz_new)
            drops = {u for u in cond
                     if u in md.truths and u not in merged
                     and md.triple_of(u).indicator in later}
            if drops:
                ccheck = (cond - drops) - {m}
                if not m_separated(g, [m], sorted(drops),
                                   sorted(ccheck & (g.random_vertices | g.fixed_vertices))):
                    raise ScheduleInvalid(Violation(
                        "observability", k,
                        f"cannot drop {sorted(drops)} from the conditional for "
                        f"{m!r}", tuple(sorted(drops))))
                cond -= drops
                self.notes.append(
                    f"class {k}: dropped {sorted(drops)} from the {m!r} factor "
                    f"(m-separated given {sorted(cond)})")
            pins: dict[str, int] = {}
            cols: set[str] = set()
            for u in sorted(cond):
                if u in md.truths:
                    if u not in merged:
                        pins[md.triple_of(u).indicator] = 1
                    cols.add(md.triple_of(u).proxy)
                else:
                    cols.add(u)
            for r in sorted(rz_new | (set(earlier) & md.indicators)):
                pins[r] = 1
            if m in md.truths:
                if m not in merged:
                    ind = md.triple_of(m).indicator
                    if ind not in rz_new:
                        raise ScheduleInvalid(Violation(
                            "observability", k,
                            f"class member {m!r} has no observable column and its "
                            f"indicator is not selectable", (m,)))
                    pins[ind] = 1
                m_col = md.triple_of(m).proxy
            else:
                m_col = m
            out.append((m_col, cols, pins))
        return out


def validate_schedule(md: MdDag, sched: FixingSchedule):
    """Run the schedule's graph steps along its linear extension and, once
    every class has passed, its kernel steps in the same order; return
    (ok, violation-or-None, plan).  A failing schedule writes no kernel."""
    plan = SchedulePlan(md, sched)
    order = sched.linear_extension()
    try:
        for k in order:
            plan.subproblem(k)
    except ScheduleInvalid as exc:
        return False, exc.violation, plan
    for k in order:
        plan._kernel_step(k)
    return True, None, plan
