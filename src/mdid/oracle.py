"""Brute-force ground truth for verification.

Samples strictly positive full laws from the DAG factorization of a
missing-data model, derives observed laws, verifies emitted functionals
against enumerated truths, and constructs witness pairs certifying full-law
non-identifiability.

A law is a FactoredLaw: its CPT factors, one per vertex, and a marginal
is the program of one atom (``kernel.evaluate_numeric``), which sums them
by variable elimination, so large models never materialize the full
joint.  A marginal may carry evidence (fixed values): every factor is
sliced at it, and at the support it leaves (the values with mass), before
elimination.  A sampled law heads each CPT by its vertex
(``FactoredLaw.heads``), and a marginal leaves out the CPTs that are
barren for it: a CPT whose child is neither kept nor evidence and feeds
no factor left sums to 1 out of the product.  So the target law, the
marginal over the censored and fully observed variables, multiplies only
the censored variables' CPTs.  The law checks its factors once when it is
made: finite, non-negative, on the law's domains, each headed factor
summing to 1 over its head within 1e-12, and it finds where they are
zero.  The observed law of a trial shares the full law's checked factors,
heads and zero pattern, so a trial checks its law once.  The contraction
plan, and the program that ``kernel.evaluate_numeric`` plans for an
expression or a marginal, are cached by the factors' axes, that zero
pattern and the heads, and read no data, so every sampled law of one
model with the same zeros (e.g. random positive CPTs beside the
deterministic proxy CPTs) reuses them and runs only their arithmetic.  No
cached plan or program holds a law's arrays.  A quotient runs over the
union of its operands' domains (``NamedTable.join``), so its structure
never depends on where a law holds a NaN.  The law holds the full domain
of each variable, and every factor axis over a variable has that domain;
``marginal`` pads its result to them, while ``on_support`` leaves out the
values without mass, as expression evaluation does; a functional's value
is padded once, to the law's domains without "?"
(``missing.without_censored_rows``).  A law caches no marginal: each is
one run of a program.
The observed law handed to expression evaluation keeps the full law's
CPTs and only restricts the variable set, so an atom's joint and its
context are each one elimination with the atom's pins as evidence, and no
trial builds the observed joint.
A dense law is a FactoredLaw with a single factor (``dense``).

A verification passes only when every trial's largest cell gap is within
the tolerance and no evaluated cell is undefined (NaN).
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
WITNESS_RETRIES = 20    # seeds colluder_witness tries before it gives up


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
    """Ground truth p(R_i | pa(R_i)) as a table over {R_i} and its parents."""
    pa = md.graph.parents([indicator])
    joint = full.marginal(pa | {indicator})
    return NamedTable.join(joint, joint.sum_out([indicator]), np.divide)


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
    """Two full laws agreeing on the observed law but differing in the full
    law, built around the collider structure: the censored parent's law is
    made context-free and the collider row is perturbed along the surface
    that keeps the censored mixture constant."""
    ri, rj = pair
    g = md.graph
    tj = md.triple_of(rj)
    pa_i = g.parents([ri])
    if rj not in pa_i or tj.truth not in pa_i:
        raise OracleError(f"({ri}, {rj}) is not a collider-certificate pair")

    for attempt in range(WITNESS_RETRIES):
        rng = np.random.default_rng(seed + attempt)
        domains_truth = (0, 1)
        # context-free law for the censored parent
        b = float(rng.uniform(0.3, 0.7))
        pa_xj = sorted(g.parents([tj.truth]))
        dims = tuple(sorted([tj.truth] + pa_xj))
        doms = {v: domains_truth for v in dims}
        shape = tuple(2 for _ in dims)
        data = np.empty(shape)
        ax = dims.index(tj.truth)
        data[(slice(None),) * ax + (0,)] = b
        data[(slice(None),) * ax + (1,)] = 1 - b
        overrides = {tj.truth: NamedTable(dims, doms, data)}
        # children of the censored parent other than the collider and the
        # proxy must ignore it
        for c in sorted(g.children([tj.truth]) - {ri, tj.proxy}):
            pa_c = sorted(g.parents([c]))
            cpt = _random_cpt(rng, c, domains_truth, {p: domains_truth for p in pa_c})
            axj = cpt.dims.index(tj.truth)
            flat = cpt.data.mean(axis=axj, keepdims=True)
            cpt = NamedTable(cpt.dims, cpt.domains,
                             np.broadcast_to(flat, cpt.data.shape).copy())
            overrides[c] = cpt

        law1 = make_cpts(md, 2, overrides, rng)
        cpt_i = _cpt_of(g, law1, ri)
        # perturb p(R_i | R_j=0, X_j, rest) keeping b-weighted mixtures fixed
        data2 = cpt_i.data.copy()
        ax_i = cpt_i.dims.index(ri)
        ax_j = cpt_i.dims.index(rj)
        ax_x = cpt_i.dims.index(tj.truth)

        def cell(ridx, jv, xv):
            sl = [slice(None)] * data2.ndim
            sl[ax_i], sl[ax_j], sl[ax_x] = ridx, jv, xv
            return tuple(sl)

        d = data2[cell(0, 0, 0)]
        f = data2[cell(0, 0, 1)]
        hi = 1 - CPT_FLOOR
        eps_up = np.minimum((hi - d) / (1 - b), (f - CPT_FLOOR) / b)
        eps_dn = np.minimum((d - CPT_FLOOR) / (1 - b), (hi - f) / b)
        eps = np.where(eps_up >= eps_dn, eps_up, -eps_dn) * 0.9
        if np.min(np.abs(eps)) * min(b, 1 - b) < 1e-3:
            continue
        d2 = d + eps * (1 - b)
        f2 = f - eps * b
        data2[cell(0, 0, 0)] = d2
        data2[cell(0, 0, 1)] = f2
        data2[cell(1, 0, 0)] = 1 - d2
        data2[cell(1, 0, 1)] = 1 - f2
        cpt_i2 = NamedTable(cpt_i.dims, cpt_i.domains, data2)
        law2 = FactoredLaw("full", dict(law1.variables),
                           tuple(cpt_i2 if t is cpt_i else t for t in law1.factors),
                           law1.heads)

        obs_gap = derive_observed_law(md, law1).table.max_abs_diff(
            derive_observed_law(md, law2).table)
        # the proxies are deterministic in (X(1), R), so the full laws
        # differ exactly where their law over (X(1), R, O) does
        full = md.truths | md.indicators | md.observed
        full_gap = law1.marginal(full).max_abs_diff(law2.marginal(full))
        if obs_gap <= 1e-12 and full_gap >= 1e-3:
            return law1, law2
    raise OracleError(f"no witness pair found for {pair} after {WITNESS_RETRIES} tries")


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
