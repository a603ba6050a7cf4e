"""Brute-force ground truth for verification.

Samples strictly positive full laws from the DAG factorization of a
missing-data model, derives observed laws, verifies emitted functionals
against enumerated truths, and constructs witness pairs certifying full-law
non-identifiability.

A law is a FactoredLaw: its CPT factors, one per vertex, whose product
is never materialized.  A marginal, with evidence (fixed values) or
without, is the program of one atom (``kernel.evaluate_numeric``): every
factor is sliced at the evidence and at the support it leaves (the
values with mass), and summed by variable elimination.  A sampled law
heads each CPT by its vertex (``FactoredLaw.heads``), and a marginal
leaves out the CPTs that are barren for it: a CPT whose child is neither
kept nor evidence and feeds no factor left sums to 1 out of the product.
So the target law, the marginal over the censored and fully observed
variables, multiplies only the censored variables' CPTs.

The law checks its factors once when it is made (finite, non-negative,
on the law's domains, each headed factor summing to 1 over its head
within 1e-12) and finds where they are zero.  The observed law of a trial
keeps the full law's checked factors, heads and zero pattern and only
restricts the variable set, so a trial checks its law once and never
builds the observed joint.  Programs are cached by the factors' axes,
that zero pattern and the heads, and hold no law's arrays, so every
sampled law of one model with the same zeros reuses them and runs only
their arithmetic; a law caches no marginal.  Every table a verification
compares, a propensity's truth too, is the result of a program.

The law holds the full domain of each variable, and every factor axis
over a variable has that domain.  ``marginal`` pads its result to them,
while ``on_support`` leaves out the values without mass, as expression
evaluation does; a functional's value is padded once, to the law's
domains without "?" (``missing.without_censored_rows``).  A quotient
runs over the union of its operands' domains (``NamedTable.join``), so
its structure never depends on where a law holds a NaN.  A dense law is
a FactoredLaw with a single factor (``dense``).

A verification passes only when every trial's largest cell gap is within
the tolerance and no evaluated cell is undefined (NaN).

A colluder witness is a closed-form pair of laws on the pair's obstruction
submodel (``colluder_witness``), with no search.  It is checked on the
marginal over the proxies and O and at one full-law cell, so it never
builds the full joint.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping

import numpy as np

from .graph import Cadmg
from .kernel import Atom, NamedTable, check_cells, evaluate_numeric, rename_axes, zero_pattern
from .missing import without_censored_rows
from .model import MISSING_TOKEN, MdDag, Triple

CPT_FLOOR = 0.01


class OracleError(ValueError):
    pass


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class FactoredLaw:
    """Law over named finite variables, held as factors whose product is the
    joint over (a superset of) ``variables``; a marginal is the program of
    one atom (``kernel.evaluate_numeric``).  Every factor must be finite and
    non-negative, and an axis over one of ``variables`` must have its domain
    there.

    ``heads`` names, per factor, the variable it is a conditional of (a
    CPT's child), or None where that is unknown; a headed factor must sum to
    1 over its head within 1e-12.  A marginal leaves out the factors it
    finds barren by their heads.  The checks and the zero pattern are made
    once, here."""

    name: str
    variables: dict[str, tuple]
    factors: tuple[NamedTable, ...]
    heads: tuple[str | None, ...] | None = None
    _pattern: tuple = field(init=False, repr=False)

    def __post_init__(self):
        self.heads = (None,) * len(self.factors) if self.heads is None else tuple(self.heads)
        if len(self.heads) != len(self.factors):
            raise OracleError(f"{len(self.heads)} heads for {len(self.factors)} factors")
        least, most = np.minimum.reduce, np.maximum.reduce
        for f, head in zip(self.factors, self.heads):
            # NaN fails both comparisons
            if not (least(f.data, None, initial=0.0) >= 0
                    and most(f.data, None, initial=0.0) < np.inf):
                raise OracleError(f"factor over {list(f.dims)} has a negative"
                                  " or non-finite cell")
            for d in f.dims:
                if d in self.variables and f.domains[d] != self.variables[d]:
                    raise OracleError(f"factor axis {d!r} has values {f.domains[d]},"
                                      f" the law {self.variables[d]}")
            if head is None:
                continue
            if head not in f.dims:
                raise OracleError(f"head {head!r} is not an axis of the factor"
                                  f" over {list(f.dims)}")
            sums = np.add.reduce(f.data, f.axis(head))
            if not (least(sums, None) >= 1 - 1e-12 and most(sums, None) <= 1 + 1e-12):
                gap = float(np.abs(sums - 1.0).max())
                raise OracleError(f"factor over {list(f.dims)} sums to 1 over its"
                                  f" head {head!r} only within {gap:.3g}, not 1e-12")
        self._pattern = zero_pattern(self.factors, self.heads)

    def marginal(self, names: Iterable[str],
                 evidence: Mapping[str, object] | None = None) -> NamedTable:
        """The marginal over names sliced at the evidence, i.e.
        ``marginal(names | evidence).take(evidence)``, over the full domains
        of names minus the evidence."""
        return self.on_support(names, evidence).padded(self.variables)

    def on_support(self, names: Iterable[str],
                   evidence: Mapping[str, object] | None = None) -> NamedTable:
        """The same marginal over the support at the evidence: its domains
        leave out the values without mass.  Every factor is sliced at the
        evidence and the support before elimination, so no table carries an
        evidence axis or a value without mass.  A name or an evidence
        variable that is not a variable of the law raises."""
        names, ev = frozenset(names), dict(evidence or {})
        unknown = (names | ev.keys()) - self.variables.keys()
        if unknown:
            raise OracleError(f"law has no variables {sorted(unknown)}")
        return evaluate_numeric(Atom(self.name, names | ev.keys(), pins=ev), self)

    @property
    def table(self) -> NamedTable:
        """The joint over ``variables``."""
        return self.marginal(self.variables)

    def dense(self, names: Iterable[str] | None = None,
              name: str | None = None) -> "FactoredLaw":
        """The marginal over names (default: all variables) as a law with
        one factor, checked to carry mass 1 within 1e-12."""
        names = frozenset(names if names is not None else self.variables)
        tab = self.marginal(names)
        total = float(tab.data.sum())
        if abs(total - 1.0) > 1e-12:
            raise OracleError(f"law mass {total} is not 1 within 1e-12")
        return FactoredLaw(name or self.name,
                           {v: self.variables[v] for v in sorted(names)}, (tab,))


def _cpt_of(g: Cadmg, law: FactoredLaw, v: str) -> NamedTable:
    """The factor of law that is v's CPT in g: the one over v and pa(v)."""
    want = {v} | g.parents([v])
    for f in law.factors:
        if set(f.dims) == want:
            return f
    raise OracleError(f"law has no CPT factor for {v!r}")


# ---------------------------------------------------------------------------
# CPT construction
# ---------------------------------------------------------------------------


def _random_cpt(rng: np.random.Generator, child: str, child_dom: tuple,
                parent_doms: dict[str, tuple]) -> NamedTable:
    dims = tuple(sorted([child] + list(parent_doms)))
    domains = {child: child_dom, **parent_doms}
    check_cells(dims, domains)      # before drawing
    shape = tuple(len(domains[d]) for d in dims)
    raw = rng.uniform(size=shape)
    ax = dims.index(child)
    k = shape[ax]
    raw = raw / raw.sum(axis=ax, keepdims=True)
    raw = (1 - k * CPT_FLOOR) * raw + CPT_FLOOR
    return NamedTable(dims, domains, raw)


def _proxy_cpt(t: Triple, truth_dom: tuple) -> NamedTable:
    """The proxy is the truth where the indicator is 1, else "?"."""
    dims = tuple(sorted([t.proxy, t.indicator, t.truth]))
    domains = {t.proxy: tuple(truth_dom) + (MISSING_TOKEN,), t.indicator: (0, 1),
               t.truth: truth_dom}
    k = len(truth_dom)
    data = np.zeros((k + 1, 2, k))      # over (proxy, indicator, truth)
    data[np.arange(k), 1, np.arange(k)] = 1.0
    data[k, 0] = 1.0
    order = (t.proxy, t.indicator, t.truth)
    return NamedTable(dims, domains,
                      np.ascontiguousarray(data.transpose([order.index(d) for d in dims])))


def _values(cardinality: int) -> tuple[int, ...]:
    """The values of a sampled variable of this cardinality, at least 2."""
    if cardinality < 2:
        raise OracleError("cardinality must be at least 2")
    return tuple(range(cardinality))


def _sample_cpts(name: str, g: Cadmg, domains: dict[str, tuple], rng: np.random.Generator,
                 fixed: Mapping[str, NamedTable]) -> FactoredLaw:
    """The law with one CPT per vertex in topological order, headed by the
    vertex: the fixed table where one is given (drawing nothing), else a
    random strictly positive table."""
    order = g.topological_order()
    return FactoredLaw(name, domains, tuple(
        fixed[v] if v in fixed
        else _random_cpt(rng, v, domains[v], {p: domains[p] for p in g.parents([v])})
        for v in order), tuple(order))


def make_cpts(md: MdDag, cardinality: int = 2,
              tables: Mapping[str, NamedTable] | None = None,
              rng: np.random.Generator | None = None) -> FactoredLaw:
    """The full law of the model with random strictly positive CPTs for
    substantive vertices (unless supplied) and deterministic proxy CPTs."""
    values = _values(cardinality)
    rng = rng or np.random.default_rng(0)
    domains: dict[str, tuple] = {}
    for t in md.triples:
        domains[t.truth] = values
        domains[t.indicator] = (0, 1)
        domains[t.proxy] = values + (MISSING_TOKEN,)
    for o in md.observed:
        domains[o] = values
    fixed = dict(tables or {})
    fixed.update((t.proxy, _proxy_cpt(t, domains[t.truth])) for t in md.triples)
    return _sample_cpts("full", md.graph, domains, rng, fixed)


def sample_full_law(md: MdDag, cardinality: int = 2, seed: int = 0,
                    tables: Mapping[str, NamedTable] | None = None) -> FactoredLaw:
    """Seeded full data law over censored variables, indicators, proxies and
    observed variables, factored per the model DAG."""
    return make_cpts(md, cardinality, tables, np.random.default_rng(seed))


def derive_observed_law(md: MdDag, full: FactoredLaw) -> FactoredLaw:
    """The law of (R, O, X): the full law's CPTs over the observed columns,
    so the censored variables are summed out of each marginal asked for.  It
    shares the full law's factors, heads and zero pattern, checked once when
    the full law was made."""
    obs = copy.copy(full)
    obs.name = "p"
    obs.variables = {v: full.variables[v] for v in sorted(md.observed_columns)}
    return obs


def target_law(md: MdDag, full: FactoredLaw) -> NamedTable:
    return full.marginal(md.truths | md.observed)


def propensity_truth(md: MdDag, full: FactoredLaw, indicator: str) -> NamedTable:
    """Ground truth p(R_i | pa(R_i)) as a table over {R_i} and its parents:
    the program of one atom of the full law, padded to the law's domains."""
    atom = Atom(full.name, (indicator,), tuple(md.graph.parents([indicator])))
    return evaluate_numeric(atom, full).padded(full.variables)


# ---------------------------------------------------------------------------
# functional verification
# ---------------------------------------------------------------------------


@dataclass
class VerifyReport:
    trials: int
    max_error: float
    undefined_cells: int
    per_trial: list[float]

    def ok(self, tol: float) -> bool:
        """Every trial ran within tol and left no cell undefined (a NaN
        error, from a trial with every cell undefined, fails)."""
        return self.trials > 0 and self.max_error <= tol and self.undefined_cells == 0


def _verify(md: MdDag, trials: int, seed: int, cardinality: int,
            compare: Callable[[FactoredLaw, FactoredLaw],
                              tuple[NamedTable, NamedTable]]) -> VerifyReport:
    """Sample a full law per trial; compare(full, observed) gives the
    (truth, evaluated) pair whose largest cell gap is the trial's error."""
    errs: list[float] = []
    undef = 0
    for t in range(trials):
        full = sample_full_law(md, cardinality, seed + t)
        truth, got = compare(full, derive_observed_law(md, full))
        undef += got.undefined_count()
        errs.append(truth.max_abs_diff(got))
    # np.max, unlike max, returns NaN when any trial's error is NaN
    return VerifyReport(trials, float(np.max(errs)) if errs else float("nan"), undef, errs)


def verify_target_functional(md: MdDag, functional, trials: int = 100,
                             seed: int = 0, cardinality: int = 2) -> VerifyReport:
    """Evaluate an emitted target-law functional against the enumerated
    target law on sampled laws.  ``functional`` must provide
    evaluate(observed_law) -> NamedTable over the censored/observed names."""
    return _verify(md, trials, seed, cardinality,
                   lambda full, obs: (target_law(md, full), functional.evaluate(obs)))


def verify_full_functional(md: MdDag, functional, trials: int = 100,
                           seed: int = 0, cardinality: int = 2) -> VerifyReport:
    full_vars = md.truths | md.observed | md.indicators
    return _verify(md, trials, seed, cardinality,
                   lambda full, obs: (full.marginal(full_vars), functional.evaluate(obs)))


def verify_indicator_functional(md: MdDag, indicator: str, expr,
                                trials: int = 100, seed: int = 0,
                                cardinality: int = 2) -> VerifyReport:
    """Compare an emitted propensity against p(R_i=1 | pa(R_i)) with every
    indicator parent at 1 (the slice the identification theory pins)."""
    pins = {r: 1 for r in md.graph.parents([indicator]) & md.indicators}
    pins[indicator] = 1

    def compare(full, obs):
        got = without_censored_rows(obs, evaluate_numeric(expr, obs)).take(pins)
        truth = propensity_truth(md, full, indicator).take(pins)
        # express over proxy columns so axes line up with the functional
        return rename_axes(truth, {t.truth: t.proxy for t in md.triples}), got

    return _verify(md, trials, seed, cardinality, compare)


# ---------------------------------------------------------------------------
# witness pairs certifying full-law non-identifiability
# ---------------------------------------------------------------------------


def colluder_witness(md: MdDag, pair: tuple[str, str], seed: int = 0):
    """Two binary full laws that agree on the observed law and differ on the
    full law, for a colluder pair (R_i, R_j): X_j(1) -> R_i <- R_j.

    Both laws live on the pair's obstruction submodel, where R_i reads only
    R_j and X_j(1) and no other vertex but a proxy reads a parent, so they
    are laws of the model.  X_j(1) and R_j are uniform, and every other substantive
    vertex but R_i puts mass 1 - CPT_FLOOR on a value drawn from seed.
    Given R_j = 1, R_i = 0 has mass 1/2 in both laws; given R_j = 0, it has
    1/2 in the first law and, in the second, 9/10 at X_j(1) = 0 and 1/10 at
    X_j(1) = 1.

    The observed laws agree: R_j = 0 makes X_j's proxy "?", and apart from
    that proxy only R_i reads X_j(1), so given R_j = 0 the observed law sees
    R_i's mixture over a uniform X_j(1), 1/2 in both laws.  The full laws
    differ by exactly 1/10 at the cell (X_j(1) = 0, R_j = 0, R_i = 0),
    whatever the size of the model.  Both are checked, on the marginal over
    the proxies and O and at that cell, and a failed check raises
    OracleError."""
    ri, rj = pair
    g = md.graph
    if not ({ri, rj} <= md.indicators and {rj, md.triple_of(rj).truth} <= g.parents([ri])):
        raise OracleError(f"({ri}, {rj}) is not a collider-certificate pair")
    xj = md.triple_of(rj).truth

    def cpt(v: str, rows, reads: tuple[str, ...] = ()) -> NamedTable:
        """v's CPT that reads only ``reads``: rows over (*reads, v)."""
        dims = tuple(sorted({v} | g.parents([v])))
        domains = {d: (0, 1) for d in dims}
        check_cells(dims, domains)      # before allocating
        rows = NamedTable(reads + (v,), domains, rows).aligned(dims, domains)
        return NamedTable(dims, domains, np.broadcast_to(rows, (2,) * len(dims)).copy())

    others = sorted((md.truths | md.indicators | md.observed) - {ri, rj, xj})
    peaks = np.random.default_rng(seed).integers(2, size=len(others))
    tables = {v: cpt(v, np.where(np.arange(2) == peak, 1 - CPT_FLOOR, CPT_FLOOR))
              for v, peak in zip(others, peaks)}
    tables.update({v: cpt(v, np.full(2, 0.5)) for v in (xj, rj)})

    def law(q: float) -> FactoredLaw:
        # R_i's rows over (R_j, X_j(1), R_i): R_i = 0 has mass q at
        # (0, 0), 1 - q at (0, 1) and 1/2 given R_j = 1
        rows = np.array([[[q, 1 - q], [1 - q, q]], [[0.5, 0.5], [0.5, 0.5]]])
        return make_cpts(md, 2, {**tables, ri: cpt(ri, rows, (rj, xj))})

    law1, law2 = law(0.5), law(0.9)

    # each indicator is a function of its proxy (R_i = 1 iff X_i != "?"),
    # so the observed laws agree where their law over (X, O) does
    seen = md.proxies | md.observed
    obs_gap = law1.marginal(seen).max_abs_diff(law2.marginal(seen))
    cell = {xj: 0, rj: 0, ri: 0}
    cell_gap = abs(float(law1.marginal((), cell).data) - float(law2.marginal((), cell).data))
    if obs_gap > 1e-12 or cell_gap < 1e-3:
        raise OracleError(f"witness for {pair}: observed laws differ by {obs_gap:.3g},"
                          f" full laws by {cell_gap:.3g} at {cell}")
    return law1, law2


# ---------------------------------------------------------------------------
# interventional ground truth (for the causal module)
# ---------------------------------------------------------------------------


def sample_dag_law(g: Cadmg, cardinality: int = 2, seed: int = 0) -> FactoredLaw:
    """Random strictly positive law factoring along a DAG (bidirected edges
    rejected)."""
    if g.bidirected_edges:
        raise OracleError("sample_dag_law needs a DAG")
    values = _values(cardinality)
    return _sample_cpts("p", g, {v: values for v in g.vertex_names},
                        np.random.default_rng(seed), {})


def interventional_truth(g: Cadmg, law: FactoredLaw, outcomes: Iterable[str],
                         treatments: Mapping[str, object]) -> NamedTable:
    """p(Y(a)) by direct enumeration of the truncated factorization."""
    kept = [v for v in g.topological_order() if v not in treatments]
    return FactoredLaw(law.name, law.variables, tuple(_cpt_of(g, law, v) for v in kept),
                       tuple(kept)).marginal(outcomes, treatments)
