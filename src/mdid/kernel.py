"""Symbolic kernel expressions over a discrete law, with numeric evaluation.

Expression nodes: Atom (a conditional of a named law, evaluated at the
values its pins fix), Marginal, Product, Quotient and One (the normalized
unit).  Expressions are immutable; a conditional is a quotient by a
marginal.  ``canonicalize`` rewrites a tree into a deterministic normal
form: marginals absorbed into atoms and distributed over products variable
by variable, quotients flattened with common factors cancelled, and
chain-rule merges applied to pairs of atoms of the same law.  A
restriction (``restrict_values``, the ``at`` form of ``parse``) is pushed
onto the atoms as pins.  Golden tests compare canonical forms, so the
normal form is deliberately order-insensitive: products are sorted by
rendered text.

Numeric evaluation is dense, over named axes; positive mass over zero
becomes a NaN marker (an explicit "undefined" signal, counted by callers)
rather than raising, and 0/0 is a structural zero.  An atom is asked of the
law with its pins as evidence: the product of the law's factors summed by
variable elimination, from a plan cached by the factors' structure
(``_contraction_plan``); each step is lowered at plan time to fixed
transposes and reshapes around one ``np.matmul`` (or one sum, for a step
over one table).  Its sums run in another order than a cell-by-cell
product would, so tables agree with a plain elimination to within 1e-12,
not bit for bit.  No join or contraction step builds more than
``MAX_CELLS`` cells or ``MAX_AXES`` axes.

A law may name each factor's head, the variable it is a conditional of
(a CPT's child), and the law checks that the factor sums to 1 over it.
A marginal does only the arithmetic its answer reads: a headed table whose
head is neither kept nor evidence, and that no other table left spans, is
barren (it sums to 1 out of the product), so the plan leaves it out, and
then, repeatedly, each table that becomes barren once it is gone (Baker &
Boult, "Pruning Bayesian networks for efficient computation", 1990).

Work is shared wherever its structure repeats.  ``evaluate_numeric``
plans an expression once per law structure (its name, variables, zero
pattern and heads) into a flat program of slices, steps, joins and sums.
Each is one call with its constants and input registers bound at plan
time, so that an oracle trial on a law of that structure runs only their
arithmetic (``_Program.run``); a law's marginal is the program of one
atom.  Planning runs no call and reads no table's data, so a program
depends only on that structure.  The planner binds a factor slice or a
contraction step once, however many of the expression's marginals share
it: a slice by its factor's position with its evidence and support
indices, a step by the step with its input registers.

Evaluation works on the support.  A variable's support is the set of its
values that keep nonzero mass in every factor once the factors are sliced
at the evidence (``_support``, shrunk to a fixed point); for the
deterministic proxy CPTs of a missing-data law it drops, e.g., the "?" row
of a proxy whose indicator is pinned to 1.  It is found from the factors'
``zero_pattern``, made once per law with their heads, and the pattern is
part of the cached plan's key, so one plan slices every factor at the
evidence and at the support, and a second law with the same zeros replays
it.  The supports are found over every factor, barren ones too, so leaving
a barren one out changes no table's axes or domains.  A table's
``domains`` may leave out values at which it is zero: ``NamedTable.join``
multiplies over the intersection of two domains and divides over their
union, where a value one side leaves out reads as 0.  Only the law holds
the full domains.  ``evaluate_numeric`` returns its result on the support
too, and a caller that wants other domains pads it (``NamedTable.padded``,
checked against ``MAX_CELLS`` like every join and step).
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class ExprError(ValueError):
    """Raised for ill-formed expressions or invalid operations."""


Value = object  # domain values: ints or strings ("?" for censored proxies)
Pins = tuple[tuple[str, Value], ...]
MAX_CELLS = 2 ** 24  # a larger table raises ExprError, not MemoryError
MAX_AXES = 32        # the most axes numpy before 2.0 allows an array
Axes = tuple[tuple[str, tuple[Value, ...]], ...]     # a table's axes with their domains
ZeroPattern = tuple[tuple[Axes, ...], tuple[bytes | None, ...],
                    tuple[str | None, ...]]    # see zero_pattern


def _names(xs: Iterable[str]) -> tuple[str, ...]:
    return tuple(sorted(set(xs)))


def _pins(assignments) -> Pins:
    if isinstance(assignments, Mapping):
        items = assignments.items()
    else:
        items = assignments
    out: dict[str, Value] = {}
    for var, val in items:
        if var in out and out[var] != val:
            raise ExprError(f"conflicting restriction for {var!r}")
        out[var] = val
    return tuple(sorted(out.items()))


@dataclass(frozen=True)
class Expr:
    """Base class; concrete nodes below."""

    def free(self) -> frozenset[str]:
        raise NotImplementedError

    def contexts(self) -> frozenset[str]:
        raise NotImplementedError

    def pinned(self) -> dict[str, Value]:
        raise NotImplementedError

    def mentioned(self) -> frozenset[str]:
        return self.free() | self.contexts() | frozenset(self.pinned())


@dataclass(frozen=True)
class One(Expr):
    """Multiplicative unit: a fully summed-out normalized kernel."""

    def free(self):
        return frozenset()

    def contexts(self):
        return frozenset()

    def pinned(self):
        return {}


@dataclass(frozen=True)
class Atom(Expr):
    """p_law(vars | ctx) at the pins, a conditional table of the named law;
    a pinned variable is fixed at its value and leaves the axes."""

    law: str
    vars: tuple[str, ...]
    ctx: tuple[str, ...] = ()
    pins: Pins = ()

    def __post_init__(self):
        object.__setattr__(self, "vars", _names(self.vars))
        object.__setattr__(self, "ctx", _names(self.ctx))
        object.__setattr__(self, "pins", _pins(self.pins))
        if set(self.vars) & set(self.ctx):
            raise ExprError(f"atom vars and ctx overlap: {self}")
        if not {k for k, _ in self.pins} <= set(self.vars) | set(self.ctx):
            raise ExprError(f"atom pins a variable it does not mention: {self}")

    def free(self):
        return frozenset(self.vars) - frozenset(k for k, _ in self.pins)

    def contexts(self):
        return frozenset(self.ctx) - frozenset(k for k, _ in self.pins)

    def pinned(self):
        return dict(self.pins)


@dataclass(frozen=True)
class Marginal(Expr):
    """Child summed over the given variables."""

    child: Expr
    over: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "over", _names(self.over))

    def free(self):
        return self.child.free() - frozenset(self.over)

    def contexts(self):
        return self.child.contexts()

    def pinned(self):
        return self.child.pinned()


@dataclass(frozen=True)
class Product(Expr):
    children: tuple[Expr, ...]

    def free(self):
        out: frozenset[str] = frozenset()
        for c in self.children:
            out |= c.free()
        return out

    def contexts(self):
        out: frozenset[str] = frozenset()
        for c in self.children:
            out |= c.contexts()
        return out - self.free()

    def pinned(self):
        out: dict[str, Value] = {}
        for c in self.children:
            out.update(c.pinned())
        return out


@dataclass(frozen=True)
class Quotient(Expr):
    num: Expr
    den: Expr

    def free(self):
        return self.num.free() | self.den.free()

    def contexts(self):
        return (self.num.contexts() | self.den.contexts()) - self.free()

    def pinned(self):
        out = dict(self.den.pinned())
        out.update(self.num.pinned())
        return out


# ---------------------------------------------------------------------------
# construction helpers (validated operations)
# ---------------------------------------------------------------------------


def marginalize(e: Expr, out: Iterable[str]) -> Expr:
    """Sum the expression over ``out`` (a subset of its free variables)."""
    outs = _names(out)
    bad = set(outs) - e.free()
    if bad:
        raise ExprError(f"cannot marginalize non-free variables {sorted(bad)}")
    if not outs:
        return e
    return canonicalize(Marginal(e, outs))


def restrict_values(e: Expr, assignments) -> Expr:
    """Evaluate the expression at fixed values of free or context variables.

    A pin is kept as long as the variable is still free or a context
    somewhere in the tree: a variable may be pinned in one factor yet vary in
    another, and each occurrence must be sliced.
    """
    pins = _pins(assignments)
    _check_pins(e, pins)
    new = tuple((v, x) for v, x in pins
                if v in e.free() or v in e.contexts())
    if not new:
        return e
    return canonicalize(_push_restrict(canonicalize(e), dict(new)))


def _check_pins(e: Expr, pins: Pins) -> None:
    """A restriction may pin only variables the expression mentions, and a
    pinned one only at its value."""
    known = e.mentioned()
    cur = e.pinned()
    for var, val in pins:
        if var not in known:
            raise ExprError(f"cannot restrict unknown variable {var!r}")
        if var in cur and cur[var] != val:
            raise ExprError(f"conflicting restriction for {var!r}")


def product(children: Iterable[Expr]) -> Expr:
    return canonicalize(Product(tuple(children)))


def quotient(num: Expr, den: Expr) -> Expr:
    return canonicalize(Quotient(num, den))


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


def _leaf_parts(e: Expr):
    """Return (law, joint vars, ctx vars, pins dict) when e is an atom,
    else None."""
    if isinstance(e, Atom):
        return e.law, set(e.vars), set(e.ctx), dict(e.pins)
    return None


def _make_leaf(law: str, joint: set[str], ctx: set[str], pins: dict[str, Value]) -> Expr:
    if not joint:       # no joint part at all: p(|ctx) == 1
        return One()
    return Atom(law, tuple(joint), tuple(ctx),
                tuple((k, v) for k, v in pins.items() if k in joint or k in ctx))


def sort_key(e: Expr) -> str:
    return render(e, "sexpr")


def _pins_aligned(j1, g1, pin1, j2, g2, pin2) -> bool:
    """Shared variables must agree on whether (and where) they are pinned,
    else the chain-rule identities do not hold cellwise."""
    for v in (j1 | g1) & (j2 | g2):
        if (v in pin1) != (v in pin2):
            return False
        if v in pin1 and pin1[v] != pin2[v]:
            return False
    return True


def _merge_leaf_quotient(n: Expr, d: Expr):
    """Chain-rule merge p(J1|G1) / p(J2|G2) -> p(J1-J2-D | J2+D+G1) p(D|G1)
    where D = G2-G1, valid when J2 and D sit inside J1.  Returns a list of
    replacement factors or None."""
    pn = _leaf_parts(n)
    pd = _leaf_parts(d)
    if pn is None or pd is None:
        return None
    law1, j1, g1, pin1 = pn
    law2, j2, g2, pin2 = pd
    if law1 != law2:
        return None
    if not _pins_aligned(j1, g1, pin1, j2, g2, pin2):
        return None
    if not (j2 <= j1 and g1 <= g2):
        return None
    dset = g2 - g1
    if not dset <= j1 or dset & j2:
        return None
    pins = dict(pin1)
    pins.update(pin2)
    rest = j1 - j2 - dset
    out = [_make_leaf(law1, rest, j2 | dset | g1, pins)]
    if dset:
        out.append(_make_leaf(law1, dset, set(g1), pins))
    return out


def _merge_leaf_product(a: Expr, b: Expr):
    """Chain-rule recomposition p(J1 | J2+G2) p(J2 | G2) -> p(J1+J2 | G2)."""
    pa_ = _leaf_parts(a)
    pb_ = _leaf_parts(b)
    if pa_ is None or pb_ is None:
        return None
    law1, j1, g1, pin1 = pa_
    law2, j2, g2, pin2 = pb_
    if law1 != law2 or not _pins_aligned(j1, g1, pin1, j2, g2, pin2):
        return None
    if g1 == (j2 | g2):
        pins = dict(pin1)
        pins.update(pin2)
        return _make_leaf(law1, j1 | j2, set(g2), pins)
    return None


def _num_den(e: Expr) -> tuple[list[Expr], list[Expr]]:
    """Flatten an expression into numerator and denominator factor lists."""
    if isinstance(e, Product):
        nums: list[Expr] = []
        dens: list[Expr] = []
        for c in e.children:
            n, d = _num_den(c)
            nums += n
            dens += d
        return nums, dens
    if isinstance(e, Quotient):
        n1, d1 = _num_den(e.num)
        n2, d2 = _num_den(e.den)
        return n1 + d2, d1 + n2
    if isinstance(e, One):
        return [], []
    return [e], []


def _rebuild(nums: list[Expr], dens: list[Expr]) -> Expr:
    # cancel structurally equal factors
    dens = list(dens)
    remaining: list[Expr] = []
    for n in nums:
        try:
            dens.remove(n)
        except ValueError:
            remaining.append(n)
    nums = remaining
    # chain-rule merges between atom leaves
    changed = True
    while changed:
        changed = False
        for d in list(dens):
            for i, n in enumerate(nums):
                merged = _merge_leaf_quotient(n, d)
                if merged is not None:
                    nums = nums[:i] + [m for m in merged if not isinstance(m, One)] + nums[i + 1:]
                    dens.remove(d)
                    changed = True
                    break
            if changed:
                break

    def recompose(factors: list[Expr]) -> list[Expr]:
        done = False
        while not done:
            done = True
            for i in range(len(factors)):
                for j in range(len(factors)):
                    if i == j:
                        continue
                    merged = _merge_leaf_product(factors[i], factors[j])
                    if merged is not None:
                        keep = [f for k, f in enumerate(factors) if k not in (i, j)]
                        if not isinstance(merged, One):
                            keep.append(merged)
                        factors = keep
                        done = False
                        break
                if not done:
                    break
        return factors

    nums = recompose(nums)
    dens = recompose(dens)
    nums = sorted(nums, key=sort_key)
    dens = sorted(dens, key=sort_key)
    num: Expr
    if not nums:
        num = One()
    elif len(nums) == 1:
        num = nums[0]
    else:
        num = Product(tuple(nums))
    if not dens:
        return num
    den = dens[0] if len(dens) == 1 else Product(tuple(dens))
    return Quotient(num, den)


def _push_restrict(e: Expr, pins: dict[str, Value]) -> Expr:
    """Push a restriction into e; pins not mentioned by e are dropped."""
    mine = {k: v for k, v in pins.items() if k in e.mentioned()}
    if not mine:
        return e
    if isinstance(e, One):
        return e
    if isinstance(e, Atom):
        merged = dict(e.pins)
        for k, v in mine.items():
            if merged.get(k, v) != v:
                raise ExprError(f"conflicting restriction for {k!r}")
            merged[k] = v
        return _make_leaf(e.law, set(e.vars), set(e.ctx), merged)
    if isinstance(e, Marginal):
        if set(mine) & set(e.over):
            raise ExprError("cannot restrict a marginalized variable")
        return Marginal(_push_restrict(e.child, mine), e.over)
    if isinstance(e, Product):
        return Product(tuple(_push_restrict(c, mine) for c in e.children))
    if isinstance(e, Quotient):
        return Quotient(_push_restrict(e.num, mine), _push_restrict(e.den, mine))
    raise ExprError(f"unknown node {type(e).__name__}")


def _varying(e: Expr) -> frozenset[str]:
    """Variables the expression actually varies over (free or context)."""
    return e.free() | e.contexts()


def _marginalize_canon(e: Expr, over: set[str]) -> Expr:
    """Canonical marginalization of an already-canonical e."""
    over = set(over) & e.free()
    if not over:
        return e
    if isinstance(e, Atom):
        return _make_leaf(e.law, set(e.vars) - over, set(e.ctx), dict(e.pins))
    if isinstance(e, Marginal):
        return _marginalize_canon(e.child, over | set(e.over))
    if isinstance(e, Product):
        residual = set(over)
        children = list(e.children)
        progress = True
        while progress and residual:
            progress = False
            for t in sorted(residual):
                hits = [i for i, c in enumerate(children) if t in c.free()]
                blockers = [i for i, c in enumerate(children)
                            if t in _varying(c) and i not in hits]
                if len(hits) == 1 and not blockers:
                    children[hits[0]] = _marginalize_canon(children[hits[0]], {t})
                    residual.discard(t)
                    progress = True
        inner = canonicalize(Product(tuple(children)))
        residual &= inner.free()
        if residual:
            return Marginal(inner, tuple(sorted(residual)))
        return inner
    if isinstance(e, Quotient):
        pushable = over - _varying(e.den)
        if pushable:
            out = canonicalize(Quotient(_marginalize_canon(e.num, pushable), e.den))
            rest = over - pushable
            return _marginalize_canon(out, rest) if rest else out
        return Marginal(e, tuple(sorted(over)))
    return Marginal(e, tuple(sorted(over)))


def canonicalize(e: Expr) -> Expr:
    if isinstance(e, (One, Atom)):
        return e
    if isinstance(e, Marginal):
        return _marginalize_canon(canonicalize(e.child), set(e.over))
    if isinstance(e, Product):
        return _rebuild(*_num_den(Product(tuple(canonicalize(c) for c in e.children))))
    if isinstance(e, Quotient):
        return _rebuild(*_num_den(Quotient(canonicalize(e.num), canonicalize(e.den))))
    raise ExprError(f"unknown node {type(e).__name__}")


# ---------------------------------------------------------------------------
# rendering and parsing
# ---------------------------------------------------------------------------


def _latex_name(v: str) -> str:
    return v.replace("(1)", "^{(1)}")


def _render_latex(e: Expr) -> str:
    if isinstance(e, One):
        return "1"
    if isinstance(e, Atom):
        pins = dict(e.pins)
        vs, cs = ([f"{_latex_name(v)}={pins[v]}" if v in pins else _latex_name(v)
                   for v in names] for names in (e.vars, e.ctx))
        body = ",".join(vs)
        if cs:
            body += r" \mid " + ",".join(cs)
        return f"{e.law}({body})"
    if isinstance(e, Marginal):
        return rf"\sum_{{{','.join(_latex_name(v) for v in e.over)}}} {_render_latex(e.child)}"
    if isinstance(e, Product):
        bits = []
        for c in e.children:
            s = _render_latex(c)
            if isinstance(c, (Marginal, Quotient)):
                s = rf"\left({s}\right)"
            bits.append(s)
        return r"\, ".join(bits)
    if isinstance(e, Quotient):
        return rf"\frac{{{_render_latex(e.num)}}}{{{_render_latex(e.den)}}}"
    raise ExprError(f"unknown node {type(e).__name__}")


def _render_sexpr(e: Expr) -> str:
    if isinstance(e, One):
        return "(one)"
    if isinstance(e, Atom):
        atom = f"(atom {e.law} ({' '.join(e.vars)}) ({' '.join(e.ctx)}))"
        if not e.pins:
            return atom
        return f"(at {atom} ({' '.join(f'({k} {v})' for k, v in e.pins)}))"
    if isinstance(e, Marginal):
        return f"(marg {_render_sexpr(e.child)} ({' '.join(e.over)}))"
    if isinstance(e, Product):
        return f"(prod {' '.join(_render_sexpr(c) for c in e.children)})"
    if isinstance(e, Quotient):
        return f"(quot {_render_sexpr(e.num)} {_render_sexpr(e.den)})"
    raise ExprError(f"unknown node {type(e).__name__}")


def render(e: Expr, fmt: str = "sexpr") -> str:
    if fmt == "sexpr":
        return _render_sexpr(e)
    if fmt == "latex":
        return _render_latex(e)
    raise ExprError(f"unknown format {fmt!r}")


# a name may end in parenthesized suffixes without spaces, as X1(1) does
_TOKEN = re.compile(r"[()]|[^\s()]+(?:\([^\s()]*\))*")


def _tokenize(text: str) -> list[str]:
    return _TOKEN.findall(text)


def _read(tokens: list[str], pos: int):
    if pos == len(tokens):
        raise ExprError("unbalanced parentheses: the expression ends early")
    if tokens[pos] != "(":
        return tokens[pos], pos + 1
    out = []
    pos += 1
    while pos == len(tokens) or tokens[pos] != ")":
        item, pos = _read(tokens, pos)      # raises at the end of the tokens
        out.append(item)
    return out, pos + 1


def _coerce(v: str) -> Value:
    try:
        return int(v)
    except ValueError:
        return v


_ARITY = {"one": 0, "atom": 3, "at": 2, "marg": 2, "quot": 2}   # (prod takes any number)


def _name_list(form) -> tuple[str, ...]:
    if not isinstance(form, list) or not all(isinstance(x, str) for x in form):
        raise ExprError(f"expected a list of names, not {form!r}")
    return tuple(form)


def _build(form) -> Expr:
    if not isinstance(form, list) or not form:
        raise ExprError(f"bad s-expression fragment: {form!r}")
    head = form[0]
    if head in _ARITY and len(form) != 1 + _ARITY[head]:
        raise ExprError(f"{head} expects {_ARITY[head]} arguments, not {len(form) - 1}")
    if head == "one":
        return One()
    if head == "atom":
        if not isinstance(form[1], str):
            raise ExprError(f"atom expects a law name, not {form[1]!r}")
        return Atom(form[1], _name_list(form[2]), _name_list(form[3]))
    if head == "at":
        pairs = form[2] if isinstance(form[2], list) else [form[2]]
        if not all(isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)
                   for p in pairs):
            raise ExprError(f"at expects a list of (name value) pins, not {form[2]!r}")
        pins = _pins((var, _coerce(val)) for var, val in pairs)
        inner = _build(form[1])
        _check_pins(inner, pins)
        return _push_restrict(inner, dict(pins))
    if head == "marg":
        return Marginal(_build(form[1]), _name_list(form[2]))
    if head == "prod":
        return Product(tuple(_build(f) for f in form[1:]))
    if head == "quot":
        return Quotient(_build(form[1]), _build(form[2]))
    raise ExprError(f"unknown s-expression head {head!r}")


def parse(text: str) -> Expr:
    tokens = _tokenize(text)
    if not tokens:
        raise ExprError("empty expression")
    form, pos = _read(tokens, 0)
    if pos != len(tokens):
        raise ExprError("trailing tokens in expression")
    return _build(form)


# ---------------------------------------------------------------------------
# numeric evaluation over named axes
# ---------------------------------------------------------------------------


@dataclass
class NamedTable:
    """Dense array with named, value-labelled axes.

    ``domains`` labels the array's axes.  A table made during evaluation may
    leave out of an axis's domain values at which all its cells are zero
    (the support rule in the module docstring); ``padded`` puts them back."""

    dims: tuple[str, ...]
    domains: dict[str, tuple[Value, ...]]
    data: np.ndarray

    def axis(self, name: str) -> int:
        return self.dims.index(name)

    def sum_out(self, names: Iterable[str]) -> "NamedTable":
        names = [n for n in names if n in self.dims]
        if not names:
            return self
        axes = tuple(self.axis(n) for n in names)
        keep = tuple(d for d in self.dims if d not in names)
        return NamedTable(keep, {d: self.domains[d] for d in keep}, self.data.sum(axis=axes))

    def take(self, pins: Mapping[str, Value]) -> "NamedTable":
        """The table at fixed values of some of its axes, which leave the
        axes; a value outside an axis's domain raises."""
        out = self
        for name, val in pins.items():
            if name not in out.dims:
                continue
            if val not in out.domains[name]:
                raise ExprError(f"value {val!r} outside the domain of {name!r}")
            ax = out.axis(name)
            keep = tuple(d for d in out.dims if d != name)
            out = NamedTable(keep, {d: out.domains[d] for d in keep},
                             np.take(out.data, out.domains[name].index(val), axis=ax))
        return out

    def padded(self, domains: Mapping[str, tuple[Value, ...]]) -> "NamedTable":
        """The table over the given domains of its axes: zero at the values
        its own leave out, without the values the given ones leave out.  A
        result over ``MAX_CELLS`` raises before anything is allocated."""
        check_cells(self.dims, domains)
        out = self
        for d in self.dims:
            out = _reindex(out, d, domains[d])
        return out

    def aligned(self, dims: tuple[str, ...], domains: dict[str, tuple[Value, ...]]) -> np.ndarray:
        return _aligned(self.data, *_alignment(self.dims, dims, domains))

    @staticmethod
    def join(a: "NamedTable", b: "NamedTable", op) -> "NamedTable":
        """``np.multiply`` or ``np.divide``, broadcast over the union of the
        axes.

        Division: a zero-mass cell divided by zero is a structural zero (it
        carries no probability, e.g. impossible proxy/indicator combinations),
        while positive mass divided by zero is genuinely undefined and becomes
        a NaN marker.  Multiplication lets exact zeros absorb NaN markers, so
        undefined values on zero-mass cells never leak into sums.

        The tables may differ in an axis's domain, since a table is zero at
        the values its domain leaves out.  So a product runs over the
        intersection of the two domains, and a quotient over their union,
        where a value one side leaves out reads as 0: 0/NaN stays NaN,
        positive mass over a value the denominator leaves out is NaN, and
        every other cell so added is a structural zero.

        The structure (the result's axes and domains, how each operand is
        reindexed, transposed and broadcast, the ``MAX_CELLS`` check) comes
        from ``_join_plan``, which reads the operands' axes and domains and
        the op, never their data.
        """
        divide = op is np.divide
        plan = _join_plan(a.dims, a.domains, b.dims, b.domains, divide)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return NamedTable(plan.dims, plan.domains,
                              _bind_join(0, 1, plan, divide)((a.data, b.data), ()))

    def undefined_count(self) -> int:
        return int(np.isnan(self.data).sum())

    def max_abs_diff(self, other: "NamedTable") -> float:
        """The largest cell gap, NaN cells left out (NaN when every cell is
        NaN); an axis the tables share must have one value set, in any
        order, and an axis only one table has broadcasts."""
        for d in set(self.dims) & set(other.dims):
            if set(self.domains[d]) != set(other.domains[d]):
                raise ExprError(f"axis {d!r} has values {self.domains[d]} in one table"
                                f" and {other.domains[d]} in the other")
            other = _reindex(other, d, self.domains[d])
        dims = tuple(sorted(set(self.dims) | set(other.dims)))
        domains = dict(self.domains)
        domains.update(other.domains)
        a = self.aligned(dims, domains)
        b = other.aligned(dims, domains)
        a, b = np.broadcast_arrays(a, b)
        mask = ~(np.isnan(a) | np.isnan(b))
        if not mask.any():
            return float("nan")
        return float(np.max(np.abs(a[mask] - b[mask])))


def _reindex(tab: NamedTable, name: str, dom: tuple[Value, ...]) -> NamedTable:
    """The table with axis name over dom: zero at the values of dom its
    domain leaves out, without the values dom leaves out."""
    have = tab.domains[name]
    if have == dom:
        return tab
    return NamedTable(tab.dims, {**tab.domains, name: dom},
                      _reindexed(tab.data, (_reindex_step(tab.axis(name), have, dom),)))


def _reindex_step(ax: int, have: tuple[Value, ...], dom: tuple[Value, ...]) -> tuple:
    """How axis ax moves from the values have to dom: the positions in have
    of the values of dom it holds, the length of dom, and the index at which
    they go into a zero array over dom (None when have holds all of dom)."""
    hit = [i for i, v in enumerate(dom) if v in have]
    take = [have.index(dom[i]) for i in hit]
    at = None
    if len(hit) < len(dom):
        at = tuple(hit if j == ax else slice(None) for j in range(ax + 1))
    return ax, take, len(dom), at


def _reindexed(data: np.ndarray, steps: Iterable[tuple]) -> np.ndarray:
    for ax, take, size, at in steps:
        data = np.take(data, take, axis=ax)
        if at is not None:
            padded = np.zeros(data.shape[:ax] + (size,) + data.shape[ax + 1:])
            padded[at] = data
            data = padded
    return data


def _alignment(have: tuple[str, ...], dims: tuple[str, ...],
               domains: Mapping[str, tuple[Value, ...]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose that puts axes have in the order of dims, and the shape
    that broadcasts the result over dims."""
    perm = tuple(have.index(d) for d in dims if d in have)
    return perm, tuple(len(domains[d]) if d in have else 1 for d in dims)


def _aligned(data: np.ndarray, perm: tuple[int, ...], shape: tuple[int, ...]) -> np.ndarray:
    return (data.transpose(perm) if perm else data.reshape(())).reshape(shape)


class _JoinPlan(NamedTuple):
    dims: tuple[str, ...]
    domains: dict
    operands: tuple     # per operand: its reindex steps, transpose and shape (None: not needed)


def _join_plan(dims_a: tuple[str, ...], doms_a: Mapping[str, tuple[Value, ...]],
               dims_b: tuple[str, ...], doms_b: Mapping[str, tuple[Value, ...]],
               divide: bool) -> _JoinPlan:
    """The structure of ``NamedTable.join`` of tables over dims_a and dims_b
    with those domains: a product over the intersection of the domains, a
    quotient over their union (the numerator's values first)."""
    da, db = {d: doms_a[d] for d in dims_a}, {d: doms_b[d] for d in dims_b}
    dims = tuple(sorted(da.keys() | db.keys()))
    domains = {}
    for d in dims:
        if d not in da or d not in db or da[d] == db[d]:
            domains[d] = da.get(d, db.get(d))
        elif divide:
            domains[d] = da[d] + tuple(v for v in db[d] if v not in da[d])
        else:
            domains[d] = tuple(v for v in da[d] if v in db[d])
    check_cells(dims, domains)
    operands = []
    for names, have in ((dims_a, da), (dims_b, db)):
        steps = tuple(_reindex_step(names.index(d), have[d], domains[d])
                      for d in sorted(names) if have[d] != domains[d])
        perm, shape = _alignment(names, dims, domains)
        # an operand over the trailing axes of the result broadcasts as it is
        trailing = dims[len(dims) - len(perm):] == tuple(d for d in dims if d in names)
        operands.append((steps, None if perm == tuple(range(len(perm))) else perm,
                         None if trailing else shape))
    return _JoinPlan(dims, domains, tuple(operands))


def _bind_join(i: int, j: int, plan: _JoinPlan, divide: bool):
    """The call that joins registers i and j as ``NamedTable.join`` does,
    under the caller's ``np.errstate``."""
    (steps_x, perm_x, shape_x), (steps_y, perm_y, shape_y) = plan.operands
    op, total = np.divide if divide else np.multiply, np.add.reduce

    def join(regs, tables):
        x, y = regs[i], regs[j]
        if steps_x:
            x = _reindexed(x, steps_x)
        if perm_x is not None:
            x = x.transpose(perm_x)
        if shape_x is not None:
            x = x.reshape(shape_x)
        if steps_y:
            y = _reindexed(y, steps_y)
        if perm_y is not None:
            y = y.transpose(perm_y)
        if shape_y is not None:
            y = y.reshape(shape_y)
        data = np.asarray(op(x, y))
        # the sum is finite only if every cell is
        if math.isfinite(total(data, None)):
            return data
        # a NaN or an infinity is a NaN marker, unless zeros absorb it
        zero = (x == 0) & (y == 0) if divide else (x == 0) | (y == 0)
        return np.where(zero, 0.0, np.where(np.isfinite(data), data, np.nan))
    return join


def rename_axes(tab: NamedTable, mapping: Mapping[str, str]) -> NamedTable:
    """Rename axes (names absent from the mapping are kept) and restore the
    sorted axis order."""
    dims = tuple(mapping.get(d, d) for d in tab.dims)
    if len(set(dims)) != len(dims):
        raise ExprError("axis rename collision")
    domains = {mapping.get(d, d): dom for d, dom in tab.domains.items()}
    order = tuple(np.argsort(dims))
    data = np.transpose(tab.data, order) if tab.dims else tab.data
    return NamedTable(tuple(sorted(dims)), domains, data)


def check_cells(dims: tuple[str, ...], domains: Mapping[str, tuple[Value, ...]]) -> None:
    """Raise ExprError for a table over dims with more than ``MAX_AXES`` axes
    or ``MAX_CELLS`` cells, before anything is allocated."""
    if len(dims) > MAX_AXES:
        raise ExprError(f"a table over {len(dims)} axes exceeds MAX_AXES = {MAX_AXES}")
    cells = math.prod(len(domains[d]) for d in dims)
    if cells > MAX_CELLS:
        raise ExprError(f"a table of {cells} cells over {list(dims)} exceeds"
                        f" MAX_CELLS = {MAX_CELLS}")


def _axes(tables: Sequence[NamedTable]) -> tuple[Axes, ...]:
    return tuple(tuple((d, t.domains[d]) for d in t.dims) for t in tables)


def zero_pattern(tables: Sequence[NamedTable], heads: Sequence[str | None]) -> ZeroPattern:
    """The tables' axes with their domains, where each table is zero (the
    packed bits of its nonzero cells, None for a table without a zero), and
    each table's head (the variable it is a conditional of, None when
    unknown): the key from which a contraction plan finds the support and
    the barren tables, made once per set of tables (a law's factors) rather
    than in every contraction."""
    return (_axes(tables),
            tuple(None if np.count_nonzero(t.data) == t.data.size
                  else np.packbits(t.data != 0).tobytes() for t in tables),
            tuple(heads))


def _bind_slice(pos: int, pinned: tuple, kept: tuple | None):
    """The call that slices table pos at the evidence (pinned: per axis, the
    index of its evidence value, None for an axis left) and at the support
    (kept: per axis left, the indices of its support; None when no axis
    loses a value)."""
    # a view, so that freezing it leaves the factor writable
    at = ... if all(i is None for i in pinned) else tuple(
        slice(None) if i is None else i for i in pinned)
    if kept is None:
        return lambda regs, tables: tables[pos].data[at]
    ix = np.ix_(*(np.array(k, dtype=np.intp) for k in kept))
    return lambda regs, tables: tables[pos].data[at][ix]


class _Plan(NamedTuple):
    keys: tuple             # per op: a slice's (position, evidence and support
                            # indices), or a step's (_Step, input positions)
    dims: tuple[str, ...]   # the last op's axes
    domains: dict           # their supports


class _Step(NamedTuple):
    """A contraction step as the numpy calls fixed at plan time.  One
    operand is summed over the axes the output drops and transposed to the
    output's order.  Two operands drop no axis that only one of them spans
    (the plan sums a variable out where all its tables meet): they are
    transposed and reshaped to (batch, left, contracted) and (batch,
    contracted, right), multiplied by ``np.matmul``, and the product is
    reshaped to its batch, left and right axes.  None stands for a call the
    step does not need.  Equal steps on equal input registers make equal
    arrays, so a step with its inputs is the key that shares it."""

    sum: tuple[int, ...] | None     # one operand: the axes summed out
    forms: tuple | None             # two operands: per operand, its transpose and matrix shape
    shape: tuple[int, ...] | None   # two operands: the product's shape over its axes
    perm: tuple[int, ...] | None    # the transpose to the output's order

    def bind(self, inputs: tuple[int, ...]):
        """The step as one call that reads its operands from the registers
        inputs."""
        summed, forms, shape, perm = self
        if forms is None:
            (i,) = inputs
            reduce = np.add.reduce

            def one(regs, tables):
                x = regs[i] if summed is None else reduce(regs[i], summed)
                return x if perm is None else x.transpose(perm)
            return one
        i, j = inputs
        (perm_a, shape_a), (perm_b, shape_b) = forms
        matmul = np.matmul

        def two(regs, tables):
            a, b = regs[i], regs[j]
            if perm_a is not None:
                a = a.transpose(perm_a)
            if shape_a is not None:
                a = a.reshape(shape_a)
            if perm_b is not None:
                b = b.transpose(perm_b)
            if shape_b is not None:
                b = b.reshape(shape_b)
            x = matmul(a, b)
            if shape is not None:
                x = x.reshape(shape)
            return x if perm is None else x.transpose(perm)
        return two


def _perm(have: Sequence[str], want: Sequence[str]) -> tuple[int, ...] | None:
    """The transpose from axes have to axes want, None when they agree."""
    perm = tuple(have.index(d) for d in want)
    return None if perm == tuple(range(len(perm))) else perm


def _lower(operands: tuple[tuple[str, ...], ...], out: tuple[str, ...], ordered: bool,
           size: Mapping[str, int]) -> tuple[_Step, tuple[str, ...], int]:
    """The step over tables with the operands' axes that keeps the axes of
    out, in out's order if ordered, else in the order the step leaves them
    (batch, left, right, each in its operand's order); with the cells of
    the operands it transposes."""
    if len(operands) == 1:
        (a,) = operands
        summed = tuple(k for k, d in enumerate(a) if d not in out)
        kept = tuple(d for d in a if d in out)
        axes = out if ordered else kept
        return _Step(summed or None, None, None, _perm(kept, axes)), axes, 0
    a, b = operands
    batch = tuple(d for d in a if d in b and d in out)
    left = tuple(d for d in a if d not in b)
    right = tuple(d for d in b if d not in a)
    summed = tuple(d for d in a if d in b and d not in out)

    def n(axes):
        return math.prod(size[d] for d in axes)

    def form(axes, order, matrix):
        return _perm(axes, order), None if matrix == tuple(size[d] for d in order) else matrix

    lead = (n(batch),) if batch else ()
    forms = (form(a, batch + left + summed, lead + (n(left), n(summed))),
             form(b, batch + summed + right, lead + (n(summed), n(right))))
    made = batch + left + right
    shape = tuple(size[d] for d in made)
    axes = out if ordered else made
    return (_Step(None, forms, None if shape == lead + (n(left), n(right)) else shape,
                  _perm(made, axes)), axes,
            sum(n(x) for x, (perm, _) in zip(operands, forms) if perm is not None))


def _union(operands) -> tuple[str, ...]:
    return tuple(sorted(set().union(*(axes for _, axes in operands))))


@functools.lru_cache(maxsize=1024)
def _support(tables: tuple[Axes, ...], zeros: tuple[bytes | None, ...],
             evidence: Pins) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """The support of each variable outside the evidence: the values that
    keep nonzero mass in every table once each is sliced at the evidence and
    at the other variables' supports, shrunk to a fixed point.  Lists the
    positions of the values kept, only for variables that lose some; a value
    left out has zero mass in the product of the tables.  A table without a
    zero removes no value, so only tables with zeros are read."""
    ev = dict(evidence)
    alive = {d: np.array([v == ev[d] for v in dom]) if d in ev else np.ones(len(dom), bool)
             for table in tables for d, dom in table}
    masks = []
    for table, bits in zip(tables, zeros):
        if bits is not None:
            shape = [len(dom) for _, dom in table]
            flags = np.unpackbits(np.frombuffer(bits, np.uint8), count=math.prod(shape))
            masks.append((tuple(d for d, _ in table), flags.astype(bool).reshape(shape)))
    changed = True
    while changed:
        changed = False
        for names, mask in masks:
            live = mask
            for i, d in enumerate(names):
                live = live & alive[d].reshape([-1 if j == i else 1 for j in range(len(names))])
            if not live.any():          # the product is zero everywhere
                return tuple((d, ()) for d in sorted(alive) if d not in ev)
            for i, d in enumerate(names):
                kept = live.any(axis=tuple(j for j in range(len(names)) if j != i))
                if kept.sum() < alive[d].sum():
                    alive[d] = kept
                    changed = True
    return tuple((d, tuple(int(i) for i in np.flatnonzero(a)))
                 for d, a in sorted(alive.items()) if d not in ev and not a.all())


def _unbarren(tables: tuple[Axes, ...], heads: tuple[str | None, ...],
              keep: frozenset[str], evidence: Mapping[str, Value]) -> list[int]:
    """The positions of the tables left once barren ones are dropped, one at
    a time until none is: a table whose head is neither kept nor evidence
    and is spanned by no other table left: it sums to 1 over its head."""
    left = list(range(len(tables)))
    spans = [{d for d, _ in table} for table in tables]
    dropped = True
    while dropped:
        dropped = False
        for pos in left:
            h = heads[pos]
            if (h is not None and h not in keep and h not in evidence
                    and not any(h in spans[q] for q in left if q != pos)):
                left.remove(pos)
                dropped = True
                break
    return left


@functools.lru_cache(maxsize=1024)
def _contraction_plan(pattern: ZeroPattern, keep: frozenset[str], evidence: Pins) -> _Plan:
    """The marginal over keep at the evidence of tables with this
    ``zero_pattern``: each table left once the barren ones are dropped
    (``_unbarren``) is sliced at the evidence and at the support
    (``_support``), and the variable whose tables span the fewest axes is
    eliminated first (ties by name), a step multiplying its tables in pairs
    by ``np.matmul`` (``_Step``).  The result's axes are sorted, over the
    supports of the kept variables.  No step may span more than
    ``MAX_CELLS`` cells or ``MAX_AXES`` axes.  The tables must be finite and
    non-negative: a step multiplies plainly, without the NaN absorption of
    ``NamedTable.join``."""
    tables, zeros, heads = pattern
    ev = dict(evidence)
    full: dict[str, tuple[Value, ...]] = {}
    for table in tables:
        for d, dom in table:
            if d not in ev and full.setdefault(d, dom) != dom:
                raise ExprError(f"domain mismatch on axis {d!r}")
            if d in ev and ev[d] not in dom:
                raise ExprError(f"value {ev[d]!r} outside the domain of {d!r}")
    # the supports are found over every table, barren ones too
    support = dict(_support(tables, zeros, evidence))
    domains = {d: tuple(dom[i] for i in support[d]) if d in support else dom
               for d, dom in full.items()}
    # work: (position of the op, axes)
    keys, work = [], []
    for pos in _unbarren(tables, heads, keep, ev):
        table = tables[pos]
        live = tuple(d for d, _ in table if d not in ev)
        pinned = tuple(dom.index(ev[d]) if d in ev else None for d, dom in table)
        kept = None if not set(live) & set(support) else tuple(
            tuple(support.get(d, range(len(full[d])))) for d in live)
        # equal keys mean equal slices of one sequence of tables
        keys.append((pos, pinned, kept))
        work.append((len(keys) - 1, live))

    def call(operands, out: tuple[str, ...], ordered: bool) -> tuple[int, tuple[str, ...]]:
        labels = _union(operands)
        check_cells(labels, domains)
        size = {d: len(domains[d]) for d in labels}
        # either table may be the left one: take the order that copies fewer cells
        step, axes, _, operands = min(
            ((*_lower(tuple(x for _, x in order), out, ordered, size), order)
             for order in (operands, operands[::-1])), key=lambda option: option[2])
        keys.append((step, tuple(p for p, _ in operands)))
        return len(keys) - 1, axes

    def step(operands, out: tuple[str, ...], ordered: bool) -> tuple[int, tuple[str, ...]]:
        # a step folds its operands in pairs, smallest first, so that each
        # call is one np.matmul
        first, *rest = sorted(operands, key=lambda w: math.prod(len(domains[d]) for d in w[1]))
        for i, nxt in enumerate(rest):
            last = i == len(rest) - 1
            first = call([first, nxt], out if last else _union([first, nxt]), ordered and last)
        return first if rest else call([first], out, ordered)

    elim = sorted(set(_union(work)) - keep)
    while elim:     # the variable whose tables span the fewest axes, ties by name
        v = min(elim, key=lambda v: len(_union([w for w in work if v in w[1]])))
        involved = [w for w in work if v in w[1]]
        work = [w for w in work if v not in w[1]] + [
            step(involved, tuple(d for d in _union(involved) if d != v), False)]
        elim.remove(v)
    if len(work) > 1 or (work and work[0][1] != _union(work)):
        work = [step(work, _union(work), True)]
    dims = _union(work)
    return _Plan(tuple(keys), dims, {d: domains[d] for d in dims})


def evaluate_numeric(e: Expr, law) -> NamedTable:
    """Evaluate against a law (duck-typed, e.g. oracle.FactoredLaw: needs
    .name, .variables with their full domains, .factors and their
    ``zero_pattern`` with their heads as ._pattern).  An atom is the law's marginal over its
    variables with its pins as evidence, divided by the one over its
    context.  Every table is kept on its support, the result too: its
    domains leave out values at which it is zero, and its data may be a view
    of a factor's, so it is read-only.  The expression's ``_Program``
    depends only on the law's structure (name, variables, zero pattern and
    heads), so it is planned once per structure and every law of it only
    runs it."""
    return _program(e, law.name, tuple(law.variables.items()), law._pattern).run(law)


class _Program(NamedTuple):
    """An expression's evaluation as a flat sequence of calls, each
    appending one array to the run's registers: a factor slice, a
    contraction step, a join or a sum, with its constants and input
    registers bound at plan time.  A slice or step that several marginals
    share appears once.  It records the result's register, axes and support
    domains, and holds no law's arrays: a call binds index arrays and the
    position of the factor it reads, never a factor."""

    ops: tuple                  # per op: its call (see run)
    out: int                    # the result's register
    dims: tuple[str, ...]
    domains: dict

    def run(self, law) -> NamedTable:
        regs: list = []
        tables = law.factors
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for call in self.ops:
                regs.append(call(regs, tables))
        out = np.asarray(regs[self.out])
        out.flags.writeable = False     # it may be a view of a factor's
        return NamedTable(self.dims, dict(self.domains), out)


def _bind_sum(i: int, axes: tuple[int, ...]):
    reduce = np.add.reduce
    return lambda regs, tables: reduce(regs[i], axes)


def _one(regs, tables):
    return np.asarray(1.0)


@functools.lru_cache(maxsize=1024)
def _program(e: Expr, name: str, variables: Axes, pattern: ZeroPattern) -> _Program:
    """e's program on laws of this structure, planned by a walk of the tree
    that binds every call and runs none; a node's table is (register, axes,
    domains)."""
    ops: list = []
    made: dict = {}         # register by the key of a slice or step
    memo: dict = {}         # register, axes and domains by expression
    known = {v for v, _ in variables}

    def emit(call) -> int:
        ops.append(call)
        return len(ops) - 1

    def one() -> tuple:
        return emit(_one), (), {}

    def marginal(names: Iterable[str], evidence: dict) -> tuple:
        plan = _contraction_plan(pattern, frozenset(names).difference(evidence),
                                 tuple(sorted(evidence.items())))
        at: list = []       # register by position in the plan
        for key in plan.keys:
            step = key[0] if isinstance(key[0], _Step) else None
            if step is not None:    # a step's key: the step and its input registers
                key = step, tuple(at[i] for i in key[1])
            if key not in made:     # bound once, however many marginals share it
                made[key] = emit(_bind_slice(*key) if step is None else step.bind(key[1]))
            at.append(made[key])
        return (at[-1], plan.dims, plan.domains) if at else one()

    def join(a: tuple, b: tuple, divide: bool) -> tuple:
        (i, dims_a, doms_a), (j, dims_b, doms_b) = a, b
        plan = _join_plan(dims_a, doms_a, dims_b, doms_b, divide)
        return emit(_bind_join(i, j, plan, divide)), plan.dims, plan.domains

    def visit(e: Expr) -> tuple:
        if e not in memo:
            memo[e] = walk(e)
        return memo[e]

    def walk(e: Expr) -> tuple:
        if isinstance(e, One):
            return one()
        if isinstance(e, Atom):
            if e.law != name:
                raise ExprError(f"atom law {e.law!r} not resolvable from {name!r}")
            want = set(e.vars) | set(e.ctx)
            missing = want - known
            if missing:
                raise ExprError(f"law has no variables {sorted(missing)}")
            joint = marginal(want, dict(e.pins))
            if not e.ctx:
                return joint
            return join(joint, marginal(e.ctx, {k: v for k, v in e.pins if k in e.ctx}), True)
        if isinstance(e, Marginal):
            i, dims, domains = visit(e.child)
            axes = tuple(dims.index(n) for n in e.over if n in dims)
            if not axes:
                return i, dims, domains
            keep = tuple(d for d in dims if d not in e.over)
            return emit(_bind_sum(i, axes)), keep, {d: domains[d] for d in keep}
        if isinstance(e, Product):
            if not e.children:
                return one()
            out = visit(e.children[0])
            for c in e.children[1:]:
                out = join(out, visit(c), False)
            return out
        if isinstance(e, Quotient):
            return join(visit(e.num), visit(e.den), True)
        raise ExprError(f"unknown node {type(e).__name__}")

    out, dims, domains = visit(e)
    return _Program(tuple(ops), out, dims, domains)
