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

Numeric evaluation is over named axes; positive mass over zero becomes a
NaN marker (an explicit "undefined" signal, counted by callers) rather
than raising, and 0/0 is a structural zero.  Which cells are zero and
which undefined is a fact of the plan, not of a trial: for non-negative
tables zeros propagate exactly (a product is zero where a factor is, a sum
where every term is, 0/0 is zero and positive mass over zero undefined), so
the planner finds every register's cell states by running its own calls
once on the law's zero pattern (``_program``), and a join writes its 0/0
zeros and NaN markers at cells fixed at plan time, reading no value to
find them.  Float underflow can still zero a cell the pattern calls
positive; that cell is then divided as IEEE arithmetic does (x/0 is inf,
0/0 NaN), unmarked, and shows as a gap or a NaN where the plan expects
none.  An atom is asked of the law with its pins as evidence: the product
of the law's factors summed by variable elimination, from a plan of the
factors' structure (``_contraction_plan``); each step is lowered at plan
time to fixed transposes and reshapes around one ``np.matmul`` (or one
sum, for a step over one table).  Its sums run in another order than a
cell-by-cell product would, so tables agree with a plain elimination to
within 1e-12, not bit for bit.  No join or contraction step builds more
than ``MAX_CELLS`` cells or ``MAX_AXES`` axes, and no marginal's table,
all its axes counted, holds more than ``MAX_CELLS`` cells.

A law may name each factor's head, the variable it is a conditional of
(a CPT's child), and the law checks that the factor sums to 1 over it.
A marginal does only the arithmetic its answer reads: a headed table whose
head is neither kept nor evidence, and that no other table left spans, is
barren (it sums to 1 out of the product), so the plan leaves it out, and
then, repeatedly, each table that becomes barren once it is gone (Baker &
Boult, "Pruning Bayesian networks for efficient computation", 1990).

Work is shared wherever its structure repeats.  ``evaluate_numeric``
plans an expression into a flat program over registers that start with
the law's factors and the unit, and caches it by the law's structure (its
name, variables, zero pattern and heads): the kernel's one cache
(``_program``).  As in an arithmetic circuit (Chavira & Darwiche, below),
each op, its constants and input registers bound at plan time, is one of
two calls: it derives one register (``_bind_derived``: a factor slice, a
one-table step, a derived marginal, a sum), or combines two by
``np.matmul``, ``np.multiply`` or ``np.divide`` (``_bind_two``: a
two-table step, a join).  An array is reshaped in one form, a tuple of
steps ``(callable, *args)`` (``_converted``), which a binder composes into
one call (``_composed``).  An oracle trial runs only the calls' arithmetic
(``_Program.run``); a law's marginal is the program of one atom.
Planning reads no table's data: it runs each call once, on the cells'
states rather than on a law.  The planner plans each distinct marginal
once and keeps the plans only while it plans; it binds a factor slice or
a contraction step once, however many marginals share it.

A marginal is also shared whole, as a junction tree shares its cliques'
tables (Lauritzen & Spiegelhalter, JRSS B 1988): a marginal whose kept
variables and extra evidence the table of another marginal of the same
program holds, at less evidence, is derived from it (``_plan_marginals``)
by one call, a slice at its evidence and its support and one sum over the
axes it drops, when that binds fewer calls than its own plan.  The last
step of a plan returns a C-contiguous array, which such a sum reads fast.
A derived table has the axes, support domains and zero cells of its
direct plan, so no join or output changes; its other cells are summed in
another order and agree with the direct plan's within 1e-14.  A Marginal
node's sum is the same call on its child's table, without evidence: as a
junction tree marginalizes every clique table one way, a program reduces
every table by one call (``_bind_derived``).

Evaluation works on the support.  A variable's support is the set of its
values that keep nonzero mass in every factor once the factors are sliced
at the evidence (``_support``, shrunk to a fixed point); for the
deterministic proxy CPTs of a missing-data law it drops, e.g., the "?" row
of a proxy whose indicator is pinned to 1.  It is found from the factors'
``zero_pattern``, made once per law, so a second law with the same zeros
replays the program.  The supports are found over every factor, barren
ones too, so leaving a barren one out changes no table's axes or domains.
A table's ``domains`` may leave out values at which it is zero:
``NamedTable.join`` multiplies over the intersection of two domains and
divides over their union, where a value one side leaves out reads as 0.
Only the law holds the full domains.  ``evaluate_numeric`` returns its
result on the support too, and a caller that wants other domains pads it
(``NamedTable.padded``, checked against ``MAX_CELLS`` like every join and
step).

Evaluation also drops an axis that the support makes a function of
another, as arithmetic circuits use determinism (Chavira & Darwiche,
"Compiling Bayesian Networks with Local Structure", IJCAI 2005).  Where a
factor's zeros make a variable A a function of a variable B (``_functions``:
a proxy's CPT makes its indicator R = 1 exactly where the proxy is not
"?"), the product of the factors is zero wherever A is not f(B).  So a
marginal that keeps or sums both lets A ride on B: a step that spans B
takes a table's A axis at f(B), on B's axis (``_rides``), and a table that
keeps both is held without A's axis, its array at each b the cell at
A = f(b).  Each B carries at most one A, and maps onto all of A's values.
A join drops A where an operand does (``_join_plan``), re-indexing the
other along B; a sum over B sums B's values in groups by A's value at
them, so A's axis comes out of the sum, and a join whose result keeps A's
axis puts it back.  The result of a program puts back every axis it dropped
(``_Program.full``), so every output keeps its axes, support domains, zero
cells and NaN cells; its other cells are summed over fewer zeros and
agree with a sum over every cell within 1e-14.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
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


def _hash_once(cls):
    """The node class with its dataclass hash stored at the first call: an
    expression keys its program's cache, and a stored hash reads no child."""
    field_hash = cls.__hash__

    def __hash__(self):
        if "_hash" not in self.__dict__:
            object.__setattr__(self, "_hash", field_hash(self))
        return self._hash
    cls.__hash__ = __hash__
    return cls


@dataclass(frozen=True)
class Expr:
    """Base class; concrete nodes below."""

    def __getstate__(self):     # a copy in another process hashes its names afresh
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    def free(self) -> frozenset[str]:
        raise NotImplementedError

    def contexts(self) -> frozenset[str]:
        raise NotImplementedError

    def pinned(self) -> dict[str, Value]:
        raise NotImplementedError

    def mentioned(self) -> frozenset[str]:
        return self.free() | self.contexts() | frozenset(self.pinned())


@_hash_once
@dataclass(frozen=True)
class One(Expr):
    """Multiplicative unit: a fully summed-out normalized kernel."""

    def free(self):
        return frozenset()

    def contexts(self):
        return frozenset()

    def pinned(self):
        return {}


@_hash_once
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


@_hash_once
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


@_hash_once
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


@_hash_once
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


def _leaf_parts(e: Atom):
    """An atom's law, joint vars, ctx vars and pins dict."""
    return e.law, set(e.vars), set(e.ctx), dict(e.pins)


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
    if not (isinstance(n, Atom) and isinstance(d, Atom)):
        return None
    law1, j1, g1, pin1 = _leaf_parts(n)
    law2, j2, g2, pin2 = _leaf_parts(d)
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
    if not (isinstance(a, Atom) and isinstance(b, Atom)):
        return None
    law1, j1, g1, pin1 = _leaf_parts(a)
    law2, j2, g2, pin2 = _leaf_parts(b)
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
    tokens = _TOKEN.findall(text)
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
        if all(self.domains[d] == domains[d] for d in self.dims):
            return self
        have = _Layout(self.dims, self.domains, ())
        return NamedTable(self.dims, {d: domains[d] for d in self.dims},
                          _converted(self.data, _conversion(have, self.dims, domains, {})))

    def aligned(self, dims: tuple[str, ...], domains: dict[str, tuple[Value, ...]]) -> np.ndarray:
        perm, shape = _alignment(self.dims, dims, domains)
        return (self.data.transpose(perm) if perm else self.data.reshape(())).reshape(shape)

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
        reindexed, transposed and broadcast, the ``MAX_CELLS`` check) and
        the result's zero and NaN cells come from ``_join_plan``, which
        reads the operands' axes, domains and which of their cells are zero
        or NaN (``_states``), the same plan a compiled program binds.
        """
        divide = op is np.divide
        plan = _join_plan(_Layout(a.dims, a.domains, ()), _Layout(b.dims, b.domains, ()),
                          _states(a.data), _states(b.data), divide, ())
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            return NamedTable(plan.out.dims, plan.out.domains, _bind_two(
                0, 1, *plan.operands, op, (), plan.fixes)([a.data, b.data]))

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
        domains = {**other.domains, **self.domains}
        other = other.padded(domains)
        dims = tuple(sorted(set(self.dims) | set(other.dims)))
        a = self.aligned(dims, domains)
        b = other.aligned(dims, domains)
        a, b = np.broadcast_arrays(a, b)
        mask = ~(np.isnan(a) | np.isnan(b))
        if not mask.any():
            return float("nan")
        return float(np.max(np.abs(a[mask] - b[mask])))


def _states(data) -> np.ndarray:
    """Each cell's state: 0 for a zero, 1 for another finite cell and NaN
    for an undefined one (NaN or infinite), as float32."""
    data = np.asarray(data)
    return np.where(np.isfinite(data), data != 0, np.nan).astype(np.float32)


class _Layout(NamedTuple):
    """A table as a register holds it: its axes (sorted) and their
    supports; and the axes the array leaves out, each (A, B, at) for a
    variable A that is a function of B on the table's support (at: per value
    of B, the position of A's value).  The array spans the other axes in
    sorted order, and holds at each value b of B the table's cell at A's
    value at(b); the table is zero at every other value of A."""

    dims: tuple[str, ...]
    domains: dict
    drop: tuple


def _stored(t) -> tuple[str, ...]:
    """The axes the array of a ``_Layout`` spans."""
    gone = {a for a, _, _ in t.drop}
    return tuple(d for d in t.dims if d not in gone)


def _padded(x: np.ndarray, ax: int, size: int, index: tuple) -> np.ndarray:
    """x put into zeros whose axis ax has size values, at index."""
    out = np.zeros(x.shape[:ax] + (size,) + x.shape[ax + 1:], x.dtype)
    out[index] = x
    return out


def _expanded(x: np.ndarray, ax: int, cells: np.ndarray, n: int) -> np.ndarray:
    """x with a dropped axis of n values put back: axis ax moves to the end,
    the new axis follows it, and the array is zero but at the given cells
    of the two (flat, the new axis fastest)."""
    x = np.moveaxis(x, ax, -1)
    out = np.zeros(x.shape + (n,), x.dtype)
    out.reshape(x.shape[:-1] + (x.shape[-1] * n,))[..., cells] = x
    return out


def _picked(x: np.ndarray, index: tuple) -> np.ndarray:
    return x[index]


def _run(positions: list) -> slice | np.ndarray:
    """An index that takes positions: a slice when they are a run."""
    first = positions[0] if positions else 0
    if positions == list(range(first, first + len(positions))):
        return slice(first, first + len(positions))
    return np.array(positions, dtype=np.intp)


def _grouped(x: np.ndarray, order: np.ndarray | None, starts: np.ndarray, ax: int) -> np.ndarray:
    """x summed along axis ax over groups of its positions: those in order
    from each start to the next."""
    return np.add.reduceat(x if order is None else x.take(order, ax), starts, ax)


def _contiguous(x: np.ndarray, perm: tuple[int, ...]) -> np.ndarray:
    return np.ascontiguousarray(x.transpose(perm))


def _zeros(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def _fixed(z: np.ndarray, zero: np.ndarray, undefined: np.ndarray) -> np.ndarray:
    np.put(z, zero, 0.0)
    np.put(z, undefined, np.nan)
    return z


def _laid(perm: tuple[int, ...] | None, shape: tuple[int, ...] | None) -> tuple:
    """The steps that transpose by perm, then reshape to shape, where not
    None: ``np.ndarray``'s methods, which take no numpy scalar."""
    return ((((np.ndarray.transpose, perm),) if perm is not None else ())
            + (((np.ndarray.reshape, shape),) if shape is not None else ()))


def _converted(x: np.ndarray, steps: tuple) -> np.ndarray:
    """x reshaped by steps, each (callable, *args) called as callable(x, *args)."""
    for step, *args in steps:
        x = step(x, *args)
    return x


def _composed(call, steps: tuple):
    """call, then steps (``_converted``) on its result, as one call of the
    registers whose args are bound in cells, so a run unpacks no step."""
    for step, *args in steps:
        call = _then(call, step, *args)
    return call


def _then(call, step, *args):
    if len(args) == 1:
        (a,) = args
        return lambda regs: step(call(regs), a)
    if len(args) == 2:
        a, b = args
        return lambda regs: step(call(regs), a, b)
    a, b, c = args
    return lambda regs: step(call(regs), a, b, c)


def _conversion(have: _Layout, dims: tuple[str, ...], domains: Mapping[str, tuple[Value, ...]],
                drop: Mapping[str, tuple]) -> tuple:
    """The steps (``_converted``) that make the array of have one over the
    axes of a table over dims and domains that drops each A of drop (mapped
    to its (B, at)), shaped to broadcast against another.  A dropped axis
    of have that drop keeps is put back (``_expanded``); an axis is
    reindexed to its domain (``_padded``); and an axis A that drop leaves
    out is indexed at at(B), on the diagonal if have spans B, else becoming
    B's axis."""
    cur = list(_stored(have))
    doms = dict(have.domains)
    steps: list = []
    for a, b, at in have.drop:
        if a not in drop:
            ax, n = cur.index(b), len(doms[a])
            cells = np.arange(len(at), dtype=np.intp) * n + np.array(at, dtype=np.intp)
            steps.append((_expanded, ax, cells, n))
            cur = cur[:ax] + cur[ax + 1:] + [b, a]
    for d in sorted(cur):
        if doms[d] != domains[d]:
            # the values of the domain that have holds, then zeros at the rest
            ax, hit = cur.index(d), [i for i, v in enumerate(domains[d]) if v in doms[d]]
            steps.append((np.ndarray.take, [doms[d].index(domains[d][i]) for i in hit], ax))
            if len(hit) < len(domains[d]):
                steps.append((_padded, ax, len(domains[d]),
                              tuple(hit if j == ax else slice(None) for j in range(ax + 1))))
    rides, cur = _rides(cur, drop)
    steps += [_ride(ride, len(axes)) for ride, axes in rides]
    out = tuple(d for d in dims if d not in drop)
    perm, shape = _alignment(tuple(cur), out, domains)
    # an operand over the trailing axes of the result broadcasts as it is
    trailing = out[len(out) - len(perm):] == tuple(d for d in out if d in cur)
    return tuple(steps) + _laid(None if perm == tuple(range(len(perm))) else perm,
                                None if trailing else shape)


def _rides(cur: list, drop: Mapping[str, tuple]) -> tuple[list, list]:
    """How an array over the axes cur puts each axis A of drop (mapped to
    its (B, at)) on B's axis: per A, the ride (A's axis, B's axis or None,
    and at) with the axes it is applied to; and the axes then.  With B's
    axis there, A is taken on the diagonal, at(b) at each b, else A's axis
    becomes B's."""
    rides = []
    for a, (b, at) in sorted(drop.items()):
        if a not in cur:
            continue
        ia, ib = cur.index(a), cur.index(b) if b in cur else None
        rides.append(((ia, ib, at), tuple(cur)))
        if ib is None:
            cur = cur[:ia] + [b] + cur[ia + 1:]
        else:
            rest = [d for d in cur if d not in (a, b)]
            # numpy puts the indexed axis where two adjacent ones were, else first
            cur = rest[:min(ia, ib)] + [b] + rest[min(ia, ib):] if abs(ia - ib) == 1 else [b] + rest
    return rides, cur


def _ride(ride: tuple, ndim: int) -> tuple:
    """The step (``_converted``) that applies a ride of ``_rides`` to an
    array of ndim axes: a take along A's axis, or an index on the
    diagonal of A's and B's."""
    ia, ib, at = ride
    if ib is None:
        return np.ndarray.take, np.array(at, dtype=np.intp), ia
    index: list = [slice(None)] * ndim
    index[ia] = np.array(at, dtype=np.intp)
    index[ib] = np.arange(len(at), dtype=np.intp)
    return _picked, tuple(index)


def _alignment(have: tuple[str, ...], dims: tuple[str, ...],
               domains: Mapping[str, tuple[Value, ...]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transpose that puts axes have in the order of dims, and the shape
    that broadcasts the result over dims."""
    perm = tuple(have.index(d) for d in dims if d in have)
    return perm, tuple(len(domains[d]) if d in have else 1 for d in dims)


class _JoinPlan(NamedTuple):
    out: _Layout
    operands: tuple     # per operand: its conversion's steps
    fixes: tuple        # flat cells of the result's array to write 0 at, and NaN at


def _join_plan(ta: _Layout, tb: _Layout, sa: np.ndarray, sb: np.ndarray, divide: bool,
               functions: tuple) -> _JoinPlan:
    """The structure of a join of the tables ta and tb, whose arrays have
    the cell states sa and sb (``_states``): a product over the
    intersection of their domains, a quotient over their union (the
    numerator's values first).  The result leaves out A's axis for each
    variable A that ``functions`` makes a function of B, where B's values
    map onto A's (``_onto``) and an operand drops A, so is zero off the
    function: either operand of a product, or the numerator of a quotient
    whose denominator drops A too or holds no NaN.  The fixes are the cells
    where plain IEEE arithmetic on the states does not give the result's: a
    product is zero where either factor is, so 0·NaN is zero; a quotient is
    zero where its numerator is and its denominator is zero or positive, so
    0/0 is zero; and every other cell the op leaves not finite (x/0, NaN)
    is undefined, NaN."""
    da, db = ({d: t.domains[d] for d in t.dims} for t in (ta, tb))
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
    drop = {}
    for a, b, _, f in functions:
        f = dict(f)
        if a in domains and b in domains and _onto(f, domains[a], domains[b]):
            za, zb = (any(x == a for x, _, _ in t.drop) for t in (ta, tb))
            if (za and (zb or not np.isnan(sb).any())) if divide else (za or zb):
                drop[a] = b, tuple(domains[a].index(f[v]) for v in domains[b])
    operands = tuple(_conversion(t, dims, domains, drop) for t in (ta, tb))
    x, y = (_converted(s, c) for s, c in zip((sa, sb), operands))
    shape = tuple(len(domains[d]) for d in dims if d not in drop)
    with np.errstate(divide="ignore", invalid="ignore"):
        finite = np.isfinite(x / y if divide else x * y)
    if divide:
        zero = (x == 0) & (y == 0)
    else:
        zero = ((x == 0) & np.isnan(y)) | (np.isnan(x) & (y == 0))
    zero = np.broadcast_to(zero, shape)
    out = _Layout(dims, domains, tuple((a, *bat) for a, bat in sorted(drop.items())))
    return _JoinPlan(out, operands, (np.flatnonzero(zero), np.flatnonzero(~(finite | zero))))


def _bind_two(i: int, j: int, steps_x: tuple, steps_y: tuple, op, steps_out: tuple,
              fixes: tuple | None):
    """The call that combines registers i and j, each converted by its
    steps, by ``op`` (``np.matmul`` for a contraction step, ``np.multiply``
    or ``np.divide`` for a join), then converts the result by steps_out and
    writes a join's fixes (``_JoinPlan``, flat cells in C order)."""
    if fixes is not None and any(f.size for f in fixes):
        steps_out += ((_fixed, *fixes),)
    x, y = (_composed(operator.itemgetter(k), steps) for k, steps in ((i, steps_x), (j, steps_y)))
    asarray = np.asarray

    def two(regs):
        return asarray(op(x(regs), y(regs)))
    return _composed(two, steps_out)


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


def zero_pattern(tables: Sequence[NamedTable], heads: Sequence[str | None]) -> ZeroPattern:
    """The tables' axes with their domains, where each table is zero (the
    packed bits of its nonzero cells, None for a table without a zero), and
    each table's head (the variable it is a conditional of, None when
    unknown): the key from which a contraction plan finds the support and
    the barren tables, made once per set of tables (a law's factors) rather
    than in every contraction."""
    return (tuple(tuple((d, t.domains[d]) for d in t.dims) for t in tables),
            tuple(None if np.count_nonzero(t.data) == t.data.size
                  else np.packbits(t.data != 0).tobytes() for t in tables),
            tuple(heads))


def _mask(table: Axes, bits: bytes | None) -> np.ndarray:
    """A table's nonzero cells, from its packed bits."""
    shape = [len(dom) for _, dom in table]
    if bits is None:
        return np.ones(shape, bool)
    flags = np.unpackbits(np.frombuffer(bits, np.uint8), count=math.prod(shape))
    return flags.astype(bool).reshape(shape)


def _functions(pattern: ZeroPattern, masks: tuple[np.ndarray, ...]) -> tuple:
    """Each variable A that a table's zeros make a function of another
    variable B, as (A, B, the table's position, ((value of B, value of A),
    ...)) over the values of B with mass in that table: a table over both
    is zero wherever A differs from the function, and so is the product of
    the tables.  A proxy and its indicator are such a pair: R = 1 exactly
    where the proxy is not "?".  Pairs are read from every table in order,
    the first table wins, and each A takes the first B (by name) that is
    itself a function of no variable and carries no A before it, so every
    table leaves out A for the same B, and a B carries at most one A.  A
    table whose nonzero cells outnumber its cells over A's values cannot
    make A a function of anything, and is not searched."""
    tables, zeros, _ = pattern
    found: dict = {}
    for pos, (table, bits, mask) in enumerate(zip(tables, zeros, masks)):
        if bits is None or len(table) < 2:
            continue
        cells = np.flatnonzero(mask)
        at = np.unravel_index(cells, mask.shape)
        for ia, (a, dom_a) in enumerate(table):
            if len(dom_a) < 2 or cells.size * len(dom_a) > mask.size:
                continue
            for ib, (b, dom_b) in enumerate(table):
                if ia == ib or (a, b) in found:
                    continue
                pairs = np.unique(at[ib] * len(dom_a) + at[ia])     # (b, a) with mass
                if np.all(pairs[1:] // len(dom_a) != pairs[:-1] // len(dom_a)):
                    found[a, b] = pos, tuple((dom_b[k // len(dom_a)], dom_a[k % len(dom_a)])
                                             for k in pairs.tolist())
    dependent = {a for a, _ in found}
    out: dict = {}
    for (a, b), (pos, f) in sorted(found.items()):
        if b not in dependent and a not in out and b not in {x[1] for x in out.values()}:
            out[a] = a, b, pos, f
    return tuple(out.values())


def _onto(f: Mapping, dom_a: tuple, dom_b: tuple) -> bool:
    """Whether A, over dom_a, may ride on B, over dom_b: A takes more than
    one value, and f maps B's values onto all of A's."""
    return len(dom_a) > 1 and {f.get(v) for v in dom_b} == set(dom_a)


def _slicing(pinned: tuple, picks: tuple | None) -> tuple:
    """The steps that slice a factor at the evidence (pinned: per axis, the
    index of its evidence value, None for an axis left) and at the support
    (picks: per axis left, the output axis it indexes and the positions it
    takes along it; None when no axis loses a value): a basic index, a view
    even of every cell, so that freezing a result leaves the factor
    writable, then index arrays laid along the output axes they name, so
    that a dropped A takes, along B's, A's value at each of B's."""
    steps = [(operator.getitem, ... if all(i is None for i in pinned) else tuple(
        slice(None) if i is None else i for i in pinned))]
    if picks is not None:
        n = 1 + max(o for o, _ in picks)
        steps.append((operator.getitem, tuple(np.array(k, dtype=np.intp).reshape(
            [-1 if j == o else 1 for j in range(n)]) for o, k in picks)))
    return tuple(steps)


class _Plan(NamedTuple):
    keys: tuple             # per op: a slice's (position, evidence and support
                            # indices), or a step's (_Step, input positions)
    layout: _Layout         # the marginal's table as its last op leaves it


class _Step(NamedTuple):
    """A contraction step as the numpy calls fixed at plan time.  One
    operand is summed over the axes the output drops and transposed to the
    output's order, a derivation of its register (``_bind_derived``).  Two
    operands drop no axis that only one of them spans (the plan sums a
    variable out where all its tables meet): they are transposed and
    reshaped to (batch, left, contracted) and (batch, contracted, right),
    multiplied by ``np.matmul``, and the product is reshaped to its batch,
    left and right axes (``_bind_two``).  First, of two operands, one whose
    A rides on a B the other spans takes A's axis at B's values (``take``);
    one operand never spans both A and B.  Equal steps on equal input
    registers make equal arrays, so a step with its inputs is the key that
    shares it."""

    forms: tuple | None     # two operands: per operand, its steps to its matrix
    out: tuple              # the steps from the operand or the product to the output
    take: tuple | None = None   # two operands: per operand, its rides with their axes, or None

    def bind(self, inputs: tuple[int, ...]):
        if self.forms is None:
            return _bind_derived(*inputs, self.out)
        steps_x, steps_y = (tuple(_ride(*r) for r in rides or ()) + form
                            for rides, form in zip(self.take or (None, None), self.forms))
        return _bind_two(*inputs, steps_x, steps_y, np.matmul, self.out, None)


def _perm(have: Sequence[str], want: Sequence[str]) -> tuple[int, ...] | None:
    """The transpose from axes have to axes want, None when they agree."""
    perm = tuple(have.index(d) for d in want)
    return None if perm == tuple(range(len(perm))) else perm


def _matrices(a: tuple[str, ...], b: tuple[str, ...], out: tuple[str, ...]) -> tuple:
    """The batch, left, right and summed axes of a step over a and b."""
    return (tuple(d for d in a if d in b and d in out), tuple(d for d in a if d not in b),
            tuple(d for d in b if d not in a), tuple(d for d in a if d in b and d not in out))


def _copied(a: tuple[str, ...], b: tuple[str, ...], out: tuple[str, ...], size) -> int:
    """The cells a step with left operand a and right operand b transposes."""
    batch, left, right, summed = _matrices(a, b, out)
    return sum(math.prod(size[d] for d in x) for x, order in
               ((a, batch + left + summed), (b, batch + summed + right)) if x != order)


def _lower(operands: tuple[tuple[str, ...], ...], out: tuple[str, ...], ordered: bool,
           size: Mapping[str, int]) -> tuple[_Step, tuple[str, ...]]:
    """The step over tables with the operands' axes that keeps the axes of
    out, in out's order if ordered, else in the order the step leaves them
    (batch, left, right, each in its operand's order).  Only the last step
    of a plan transposes its output, C-contiguous: a marginal derived from
    the plan's table sums it far faster so."""

    def last(made, axes):
        return ((_contiguous, _perm(made, axes)),) if _perm(made, axes) else ()

    if len(operands) == 1:
        (a,) = operands
        summed = tuple(k for k, d in enumerate(a) if d not in out)
        kept = tuple(d for d in a if d in out)
        axes = out if ordered else kept
        return _Step(None, ((np.add.reduce, summed),) * bool(summed) + last(kept, axes)), axes
    a, b = operands
    batch, left, right, summed = _matrices(a, b, out)

    def n(axes):
        return math.prod(size[d] for d in axes)

    def form(axes, order, matrix):
        if not axes:        # a numpy scalar, perhaps, which only np.reshape takes
            return ((np.reshape, matrix),)
        return _laid(_perm(axes, order),
                     None if matrix == tuple(size[d] for d in order) else matrix)

    lead = (n(batch),) if batch else ()
    forms = (form(a, batch + left + summed, lead + (n(left), n(summed))),
             form(b, batch + summed + right, lead + (n(summed), n(right))))
    made = batch + left + right
    shape = tuple(size[d] for d in made)
    axes = out if ordered else made
    return _Step(forms, _laid(None, None if shape == lead + (n(left), n(right)) else shape)
                 + last(made, axes)), axes


def _union(operands) -> tuple[str, ...]:
    return tuple(sorted(set().union(*(axes for _, axes in operands))))


def _support(pattern: ZeroPattern, masks: tuple[np.ndarray, ...],
             ev: Mapping[str, Value]) -> dict[str, tuple[int, ...]]:
    """The support of each variable outside the evidence: the values that
    keep nonzero mass in every table once each is sliced at the evidence and
    at the other variables' supports, shrunk to a fixed point.  Maps each
    variable that loses some to the positions of the values kept; a value
    left out has zero mass in the product of the tables.  A table without a
    zero removes no value, so only tables with zeros are read."""
    tables, zeros, _ = pattern
    alive = {d: np.array([v == ev[d] for v in dom]) if d in ev else np.ones(len(dom), bool)
             for table in tables for d, dom in table}
    masks = [(tuple(d for d, _ in table), mask)
             for table, bits, mask in zip(tables, zeros, masks) if bits is not None]
    changed = True
    while changed:
        changed = False
        for names, mask in masks:
            live = mask
            for i, d in enumerate(names):
                live = live & alive[d].reshape([-1 if j == i else 1 for j in range(len(names))])
            if not live.any():          # the product is zero everywhere
                return {d: () for d in alive if d not in ev}
            for i, d in enumerate(names):
                kept = live.any(axis=tuple(j for j in range(len(names)) if j != i))
                if kept.sum() < alive[d].sum():
                    alive[d] = kept
                    changed = True
    return {d: tuple(np.flatnonzero(a).tolist()) for d, a in alive.items()
            if d not in ev and not a.all()}


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


def _contraction_plan(pattern: ZeroPattern, keep: frozenset[str], evidence: Pins,
                      functions: tuple, support: Mapping[str, tuple[int, ...]]) -> _Plan:
    """The marginal over keep at the evidence of tables with this
    ``zero_pattern``, planned once per program that asks for it and kept by
    none: each table left once the barren ones are dropped
    (``_unbarren``) is sliced at the evidence and at the support (the
    evidence's ``_support``), and the variable whose tables span the fewest axes is
    eliminated first (ties by name), a step multiplying its tables in pairs
    by ``np.matmul`` (``_Step``).  The result's axes are sorted, over the
    supports of the kept variables.  No step may span more than
    ``MAX_CELLS`` cells or ``MAX_AXES`` axes.  The tables must be finite and
    non-negative: a step multiplies plainly, without the NaN absorption of
    ``NamedTable.join``.

    A variable A that the zeros of a table left make a function of a
    variable B (``functions``, from ``_functions``), both outside the
    evidence, rides on B (B's support maps onto A's, ``_onto``, as the
    support's fixed point makes it), unless A is kept and B is not: a table
    over both is sliced on the diagonal, without A's axis, and a table over
    A alone keeps its own slice, shared with plans where A does not ride,
    until a step also spans B; that step takes its A axis at A's value at
    each of B's values, as B's axis (``_rides``, ``_Step.take``).  So the sums run
    over the pairs on the support only, where the product is not zero, and
    B's axis carries A to the result, which drops A's axis, as the plan
    records."""
    tables, _, heads = pattern
    ev = dict(evidence)
    full: dict[str, tuple[Value, ...]] = {}
    for table in tables:
        for d, dom in table:
            if d not in ev and full.setdefault(d, dom) != dom:
                raise ExprError(f"domain mismatch on axis {d!r}")
            if d in ev and ev[d] not in dom:
                raise ExprError(f"value {ev[d]!r} outside the domain of {d!r}")
    # the supports are found over every table, barren ones too
    domains = {d: tuple(dom[i] for i in support[d]) if d in support else dom
               for d, dom in full.items()}
    left = _unbarren(tables, heads, keep, ev)
    live = {d for pos in left for d, _ in tables[pos] if d not in ev}
    fused = {}      # A: (B, A's value at each of B's values)
    for a, b, pos, f in functions:
        f = dict(f)
        if (a in live and b in live and pos in left and (b in keep or a not in keep)
                and _onto(f, domains[a], domains[b])):
            fused[a] = b, tuple(f[v] for v in domains[b])
    # the marginal's whole table, dropped axes and all, must fit
    check_cells(tuple(sorted(keep & live)), domains)
    # work: (position of the op, axes)
    keys, work = [], []
    for pos in left:
        table = tables[pos]
        live_axes = tuple(d for d, _ in table if d not in ev)
        # a table over both A and B is sliced on the diagonal
        diagonal = {d for d in live_axes if d in fused and fused[d][0] in live_axes}
        out = tuple(dict.fromkeys(fused[d][0] if d in diagonal else d for d in live_axes))
        pinned = tuple(dom.index(ev[d]) if d in ev else None for d, dom in table)
        picks = None if not set(live_axes) & (set(support) | diagonal) else tuple(
            (out.index(fused[d][0]), tuple(full[d].index(v) for v in fused[d][1]))
            if d in diagonal else (out.index(d), tuple(support.get(d, range(len(full[d])))))
            for d in live_axes)
        # equal keys mean equal slices of one sequence of tables
        keys.append((pos, pinned, picks))
        work.append((len(keys) - 1, out))

    def home(d: str) -> str:
        return fused[d][0] if d in fused else d

    def merged(axes: tuple[str, ...], have: set) -> tuple[tuple[str, ...], tuple | None]:
        """An operand's axes once each A whose B the step spans rides on B,
        and the rides that take it there (None when none rides)."""
        rides, out = _rides(list(axes), {
            d: (home(d), tuple(domains[d].index(v) for v in fused[d][1]))
            for d in axes if home(d) != d and home(d) in have})
        return tuple(out), tuple((ride, len(cur)) for ride, cur in rides) or None

    def call(operands, v: str | None, ordered: bool) -> tuple[int, tuple[str, ...]]:
        have = set().union(*(x for _, x in operands))
        taken = [(p, *merged(x, have)) for p, x in operands]
        labels = _union([(p, x) for p, x, _ in taken])
        check_cells(labels, domains)
        out = tuple(d for d in labels if d != v)
        size = {d: len(domains[d]) for d in labels}
        # either table may be the left one: take the order that copies fewer
        # cells, the first on a tie
        if len(taken) == 2 and (_copied(taken[1][1], taken[0][1], out, size)
                                < _copied(taken[0][1], taken[1][1], out, size)):
            taken = taken[::-1]
        step, axes = _lower(tuple(x for _, x, _ in taken), out, ordered, size)
        take = tuple(t for _, _, t in taken)
        keys.append((step._replace(take=take) if any(take) else step,
                     tuple(p for p, _, _ in taken)))
        return len(keys) - 1, axes

    def step(operands, v: str | None, ordered: bool) -> tuple[int, tuple[str, ...]]:
        # a step folds its operands in pairs, smallest first, so that each
        # call is one np.matmul
        first, *rest = sorted(operands, key=lambda w: math.prod(len(domains[d]) for d in w[1]))
        for i, nxt in enumerate(rest):
            last = i == len(rest) - 1
            first = call([first, nxt], v if last else None, ordered and last)
        return first if rest else call([first], v, ordered)

    # an A rides on B: a table spanning A joins the tables of B, and a step
    # that spans B takes A's axis at B's values
    elim = sorted({home(d) for w in work for d in w[1]} - keep)
    while elim:     # the variable whose tables span the fewest axes, ties by name
        homes = [{home(d) for d in w[1]} for w in work]
        v = min(elim, key=lambda v: len(_union([w for w, h in zip(work, homes) if v in h])))
        involved = [w for w, h in zip(work, homes) if v in h]
        work = [w for w, h in zip(work, homes) if v not in h] + [step(involved, v, False)]
        elim.remove(v)
    if len(work) > 1 or (work and work[0][1] != _union(work)):
        work = [step(work, None, True)]
    kept = sorted(a for a in fused if a in keep)
    dims = tuple(sorted(set(_union(work)).union(kept)))
    drop = tuple((a, fused[a][0], tuple(domains[a].index(v) for v in fused[a][1])) for a in kept)
    return _Plan(tuple(keys), _Layout(dims, {d: domains[d] for d in dims}, drop))


def evaluate_numeric(e: Expr, law) -> NamedTable:
    """Evaluate against a law (duck-typed, e.g. oracle.FactoredLaw: needs
    .name, .variables with their full domains, .factors and their
    ``zero_pattern`` with their heads as ._pattern).  An atom is the law's marginal over its
    variables with its pins as evidence, divided by the one over its
    context.  Every table is kept on its support, the result too: its
    domains leave out values at which it is zero, and its data may be a view
    of a factor's, so it is read-only.  The expression's ``_Program``
    depends only on the law's structure (name, variables, zero pattern and
    heads); it is the one thing the kernel caches, looked up by the
    expression's stored hash, and every law of that structure only runs it."""
    return _program(e, law.name, tuple(law.variables.items()), law._pattern).run(law)


class _Program(NamedTuple):
    """An expression's evaluation as a flat sequence of calls, each
    appending one array to a run's registers, which start with the law's
    factors and the unit: it derives one register by its steps
    (``_bind_derived``) or combines two (``_bind_two``), with its steps and
    input registers bound at plan time.  A slice or step that several
    marginals share appears once.  It records the result's register, axes and support
    domains, how its array puts back the axes it drops, and which of its
    cells are zero and which undefined (its register's states, the dropped
    axes put back), facts of the plan that every law of the structure
    shares; it holds no law's arrays: a call binds index arrays and the
    registers it reads, never a factor."""

    ops: tuple                  # per op: its call (see registers)
    out: int                    # the result's register
    dims: tuple[str, ...]
    domains: dict
    full: tuple                 # the steps that put back every axis the result drops
    states: np.ndarray          # the result's cell states (``_states``), known at plan time

    def registers(self, law) -> list:
        """The registers of a run on the law: its factors' arrays, the
        unit, then each op's array."""
        regs = [t.data for t in law.factors]
        regs.append(np.asarray(1.0))
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            for call in self.ops:
                regs.append(call(regs))
        return regs

    def run(self, law) -> NamedTable:
        out = np.asarray(_converted(self.registers(law)[self.out], self.full))
        out.flags.writeable = False     # it may be a view of a factor's
        return NamedTable(self.dims, dict(self.domains), out)


def _summing(axes: tuple[int, ...], ndim: int) -> tuple:
    """The step that sums an array of ndim axes over axes: over several, as
    one reduction of a last axis that holds them all, which numpy runs
    several times faster on small arrays (``_sum``: the transpose that puts
    them last and the number of axes kept)."""
    if len(axes) < 2:
        return np.add.reduce, axes
    return _sum, tuple(k for k in range(ndim) if k not in axes) + tuple(axes), ndim - len(axes)


def _sum(x: np.ndarray, order: tuple[int, ...], kept: int) -> np.ndarray:
    x = x.transpose(order)
    return np.add.reduce(x.reshape(x.shape[:kept] + (math.prod(x.shape[kept:]),)), -1)


def _atoms(e: Expr, seen: set) -> Iterable[Atom]:
    """The atoms of e, each once, in the order ``_program``'s walk first
    reaches them."""
    if e in seen:
        return
    seen.add(e)
    if isinstance(e, Atom):
        yield e
    for c in (e.children if isinstance(e, Product) else (e.child,) if isinstance(e, Marginal)
              else (e.num, e.den) if isinstance(e, Quotient) else ()):
        yield from _atoms(c, seen)


def _marginals(e: Atom) -> list[tuple[frozenset[str], Pins]]:
    """The marginals an atom asks for, as (kept variables, evidence): its
    joint, then its context if it has one."""
    pins = dict(e.pins)
    names = [set(e.vars) | set(e.ctx)] + ([set(e.ctx)] if e.ctx else [])
    return [(frozenset(n).difference(pins), tuple((k, v) for k, v in e.pins if k in n))
            for n in names]


def _plan_marginals(e: Expr, name: str, known: set[str], pattern: ZeroPattern,
                    masks: tuple[np.ndarray, ...], functions: tuple) -> tuple[dict, dict]:
    """The contraction plan of every marginal e's atoms ask for, by (kept
    variables, evidence) in the order they are asked, and the source of each
    marginal derived from another, with the supports found once per
    distinct evidence (``_support``).

    A marginal (K, E) can be derived from a source (K', E') when E' holds
    some of E's pins at the same values, the source's axes hold K and the
    rest of E, and ``_derivation`` makes the marginal's array from the
    source's: then it is the source sliced at those pins and at (K, E)'s
    support, summed over the axes it drops (``_bind_derived``), one call
    instead of its own slices and steps.  The source is a marginal that
    derives from no other, the one of fewest cells (ties by sorted names,
    never by set order).  A marginal is derived only when that binds fewer
    calls: when more than one slice or step of its plan is shared by no
    other plan still planned directly, decided in the order asked and again
    until nothing changes."""
    plans: dict = {}
    supports: dict = {}
    for atom in _atoms(e, set()):
        if atom.law != name:
            raise ExprError(f"atom law {atom.law!r} not resolvable from {name!r}")
        missing = (set(atom.vars) | set(atom.ctx)) - known
        if missing:
            raise ExprError(f"law has no variables {sorted(missing)}")
        for asked in _marginals(atom):
            if asked not in plans:
                if asked[1] not in supports:
                    supports[asked[1]] = _support(pattern, masks, dict(asked[1]))
                plans[asked] = _contraction_plan(pattern, *asked, functions, supports[asked[1]])

    def derives(r, s) -> bool:
        (kept, ev), (_, ev_s) = r, s
        source, table = plans[s].layout, plans[r].layout
        return (r != s and set(table.dims) == kept and set(ev_s) <= set(ev)
                and kept.union(k for k, _ in set(ev) - set(ev_s)) <= set(source.dims)
                and _derivation(source, table, dict(ev)) is not None)

    def order(s) -> tuple:
        cells = math.prod(len(dom) for dom in plans[s].layout.domains.values())
        return cells, sorted(s[0]), [(k, repr(v)) for k, v in s[1]]

    roots = [s for s in plans if not any(derives(s, t) for t in plans)]
    candidates = {r: min((s for s in roots if derives(r, s)), key=order)
                  for r in plans if r not in roots}
    # each plan's slices and steps by id, a step's id from its inputs' ids
    ids: dict = {}
    own: dict = {}
    for r, plan in plans.items():
        at: list = []
        for key in plan.keys:
            if isinstance(key[0], _Step):
                key = key[0], tuple(at[i] for i in key[1])
            at.append(ids.setdefault(key, len(ids)))
        own[r] = set(at)
    uses = collections.Counter(i for r in plans for i in own[r])
    sources: dict = {}
    changed = True
    while changed:
        changed = False
        for r, s in candidates.items():
            if r not in sources and sum(uses[i] == 1 for i in own[r]) > 1:
                sources[r] = s
                uses.subtract(own[r])
                changed = True
    return plans, sources


def _derivation(source: _Layout, table: _Layout, evidence: Mapping[str, Value]) -> tuple | None:
    """The steps (``_converted``) that make table's array from source's: a
    basic index at the evidence the source lacks and at the support where
    it is a run, the steps for the axes the source drops, one sum
    (``_summing``), a C-contiguous transpose, then an index on an axis whose
    support is not a run.  Its cells are its direct plan's summed in
    another order: the source's values outside its support have no mass at
    its evidence, and evidence outside the source's support has none at
    all, so the table is zero (``_zeros``).  A pinned A on a kept B needs
    no slice: the support of B holds only the values where A is at the pin.
    A kept A whose B is summed gets its axis back, each value the sum of a
    group of B's values: each B carries one A (``_functions``) and maps onto
    all of A's values (``_onto``), so no group is empty.  A pinned A on a
    summed B keeps the values of B where A is at the pin.  None where the
    source drops an A that table pins with its B, or keeps while it keeps or
    pins B; a sum pins nothing and drops each pair it keeps, so is never
    refused.  A table that drops A keeps A and B, so its source
    (``_plan_marginals``), at less evidence, drops A."""
    shape = tuple(len(table.domains[d]) for d in _stored(table))
    if any(d in evidence and evidence[d] not in dom for d, dom in source.domains.items()):
        return ((_zeros, shape),)
    dropped = {a for a, _, _ in table.drop}
    kept = _stored(table)
    at, picks = [], {}      # per axis of the source: its basic index; per kept axis: its index
    for d in _stored(source):
        dom = source.domains[d]
        index = _run([dom.index(v) for v in table.domains[d]]) if d in kept else slice(None)
        if d in evidence:
            at.append(dom.index(evidence[d]))
        elif isinstance(index, slice):      # a run: a basic slice
            at.append(slice(None) if index == slice(0, len(dom)) else index)
        else:
            at.append(slice(None))
            picks[d] = index
    cur = [d for d in _stored(source) if d not in evidence]
    steps: list = []
    for a, b, ats in source.drop:
        if a in dropped:
            continue
        if a in table.dims and b not in table.dims and b not in evidence:
            # B's values grouped by A's value at them, each group summed
            groups = [[k for k, x in enumerate(ats) if x == p] for p in range(len(source.domains[a]))]
            order = [k for group in groups for k in group]
            starts = np.cumsum([0] + [len(group) for group in groups[:-1]])
            steps.append((_grouped, None if order == list(range(len(order)))
                          else np.array(order, dtype=np.intp), starts.astype(np.intp), cur.index(b)))
            cur[cur.index(b)] = a
            pos = [source.domains[a].index(v) for v in table.domains[a]]
            if pos != list(range(len(groups))):
                picks[a] = np.array(pos, dtype=np.intp)
        elif a in evidence and b not in evidence and b not in table.dims:
            pin = source.domains[a].index(evidence[a])
            index: list = [slice(None)] * len(cur)
            index[cur.index(b)] = _run([k for k, x in enumerate(ats) if x == pin])
            steps.append((_picked, tuple(index)))
        elif a in table.dims or (a in evidence and b in evidence):
            return None
    axes = tuple(k for k, d in enumerate(cur) if d not in kept)
    perm = _perm([d for d in cur if d in kept], kept)
    if any(x != slice(None) for x in at):
        steps.insert(0, (operator.getitem, tuple(at)))
    if axes:
        steps.append(_summing(axes, len(cur)))
    if perm is not None:
        steps.append((_contiguous, perm))
    if picks:
        steps.append((operator.getitem, np.ix_(*(picks.get(d, np.arange(n, dtype=np.intp))
                                                 for d, n in zip(kept, shape)))))
    return tuple(steps)


def _bind_derived(i: int, steps: tuple):
    """The call that makes a table from register i by steps: a factor slice
    (``_slicing``), a derived marginal or a sum (``_derivation``), or a
    one-table ``_Step``."""
    return _composed(operator.itemgetter(i), steps)


@functools.lru_cache(maxsize=1024)
def _program(e: Expr, name: str, variables: Axes, pattern: ZeroPattern) -> _Program:
    """e's program on laws of this structure, planned by a walk of the tree
    that binds every call and runs it once on the states; a node's table is
    (register, ``_Layout``).  A run's first registers are the law's factors
    and the unit, so every call reads registers only: it derives one
    (``_bind_derived``) or combines two (``_bind_two``).  Every marginal
    the atoms ask for is planned first, once (``_plan_marginals``); one
    derived from another is one call on the source's register, and the rest
    bind their plans' slices and steps, each once however many marginals
    share it.  A derived table has the axes and support domains of its
    direct plan and the same zero cells; its other cells are the direct
    plan's summed in another order, within 1e-14.  A Marginal node's sum is
    the same call on its child's register, and its table keeps each dropped
    A whose B it keeps.

    Each register's states, and so its zero and undefined cells, are known
    here, as an arithmetic circuit finds its zeros by running on them: the
    states start as the factors' masks (float32; decoded once, as the
    functions and supports read them) and the unit's 1, and each call, as
    it is bound, runs once on them, clamped to 1.  So a call reads only 0,
    1 and NaN: a step or a sum of 0/1 cells is positive exactly where a
    nonzero product is summed, NaN stays NaN through a sum, and a join's
    fixes (``_join_plan``) make 0·NaN and 0/0 zero and x/0 NaN.  The result puts back every axis it drops (``_Program.full``)."""
    ops: list = []
    made: dict = {}         # register by the key of a slice or step, or by derived marginal
    memo: dict = {}         # register and layout by expression
    masks = tuple(_mask(t, bits) for t, bits in zip(*pattern[:2]))     # read once
    functions = _functions(pattern, masks)
    plans, sources = _plan_marginals(e, name, {v for v, _ in variables}, pattern, masks,
                                     functions)
    # per register, its cells' states (``_states``): the factors' zero patterns, the unit's 1
    states = [mask.astype(np.float32) for mask in masks]
    unit = len(states), _Layout((), {}, ())
    states.append(np.ones((), np.float32))

    def emit(call) -> int:
        ops.append(call)
        with np.errstate(divide="ignore", invalid="ignore"):
            states.append(np.minimum(call(states), 1).astype(np.float32, copy=False))
        return len(states) - 1

    def marginal(asked: tuple) -> tuple:
        plan = plans[asked]
        if asked in sources:
            if asked not in made:
                source = sources[asked]
                made[asked] = emit(_bind_derived(marginal(source)[0], _derivation(
                    plans[source].layout, plan.layout, dict(asked[1]))))
            return made[asked], plan.layout
        at: list = []       # register by position in the plan
        for key in plan.keys:
            step = key[0] if isinstance(key[0], _Step) else None
            if step is not None:    # a step's key: the step and its input registers
                key = step, tuple(at[i] for i in key[1])
            if key not in made:     # bound once, however many marginals share it
                made[key] = emit(_bind_derived(key[0], _slicing(*key[1:])) if step is None
                                 else step.bind(key[1]))
            at.append(made[key])
        return (at[-1], plan.layout) if at else unit

    def join(a: tuple, b: tuple, divide: bool) -> tuple:
        (i, ta), (j, tb) = a, b
        plan = _join_plan(ta, tb, states[i], states[j], divide, functions)
        return emit(_bind_two(i, j, *plan.operands, np.divide if divide else np.multiply,
                              (), plan.fixes)), plan.out

    def visit(e: Expr) -> tuple:
        if e not in memo:
            memo[e] = walk(e)
        return memo[e]

    def walk(e: Expr) -> tuple:
        if isinstance(e, One):
            return unit
        if isinstance(e, Atom):
            joint, *ctx = (marginal(asked) for asked in _marginals(e))
            return join(joint, ctx[0], True) if ctx else joint
        if isinstance(e, Marginal):
            i, t = visit(e.child)
            keep = tuple(d for d in t.dims if d not in e.over)
            if keep == t.dims:
                return i, t
            out = _Layout(keep, {d: t.domains[d] for d in keep},
                          tuple(x for x in t.drop if {x[0], x[1]} <= set(keep)))
            return emit(_bind_derived(i, _derivation(t, out, {}))), out
        if isinstance(e, Product):
            if not e.children:
                return unit
            out = visit(e.children[0])
            for c in e.children[1:]:
                out = join(out, visit(c), False)
            return out
        if isinstance(e, Quotient):
            return join(visit(e.num), visit(e.den), True)
        raise ExprError(f"unknown node {type(e).__name__}")

    out, t = visit(e)
    full = _conversion(t, t.dims, t.domains, {}) if t.drop else ()
    return _Program(tuple(ops), out, t.dims, t.domains, full, _converted(states[out], full))
