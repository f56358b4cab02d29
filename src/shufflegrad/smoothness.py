"""Smoothness moduli and stepsize/epoch planning.

A smoothness modulus is a non-decreasing function ``ell`` bounding the
Hessian norm by a function of the gradient norm.  From a modulus plus a
handful of measured problem statistics, this module derives the bounded
region a run provably stays inside, the effective curvature constant on
that region, and a constant stepsize together with an epoch count for
one of six convergence recipes: random reshuffling (1, 3, 5) or
arbitrary permutations (2, 4, 6), for nonconvex (1, 2), strongly convex
(3, 4) and convex (5, 6) objectives.

Recipes 1, 2, 3 and 5 bound component gradients through a variance
model (component-gradient variance <= slope * ||full gradient||^2 +
offset^2).  Recipes 4 and 6 instead take a caller-supplied bound on the
largest component gradient over the initial sublevel set, usually from
:func:`estimate_sublevel_gradient_bound`, and are flagged heuristic.

Each recipe's facts live in one record (``RECIPES``): its name and
needs, its value-gap bound, its stepsize rule and its named checks.  A
check is a shape and one expression: the shape supplies the fixed side
(``cap``: eta <= f, ``cube``: T*eta^3 <= f, ``floor``: f <= T,
``per_log``: f <= T/ln, ``pinned``: |eta - eta(T)| <= 1e-12*eta(T),
``accuracy``: f <= eps), and the planners read shapes, never a check's
name.  A free stepsize's caps come from the checks: each ``cap`` bound
and, per ``cube`` check T*eta^3 <= C and epoch floor K/eta <= T (K the
``floor`` expression at eta = 1), (C/K)^(1/2), or (C/T)^(1/3) at a target
T.  Every emitted plan stores the checks evaluated in floats, with numeric
margins; :func:`reevaluate_plan` evaluates the same checks in 64-digit
interval arithmetic, on the standard library's ``decimal`` with every end
rounded outward, as an independent audit that never accepts an inequality
exact arithmetic rejects.
"""

from __future__ import annotations

import decimal
import functools
import math
import sys
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "EllFunction",
    "ConstantsBundle",
    "PlanCheck",
    "StepsizePlan",
    "PlanInfeasibleError",
    "solve_gradient_bound",
    "component_gradient_bound",
    "constants_for_recipe",
    "stepsize_plan",
    "reevaluate_plan",
    "SublevelGradientEstimate",
    "estimate_sublevel_gradient_bound",
]


def row_dots(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """(R,) dots of matching rows, one BLAS dot per row: row r has the
    bits of ``np.dot(A[r], B[r])`` whatever R."""
    return np.matmul(A[:, None, :], B[:, :, None])[:, 0, 0]


@dataclass(frozen=True)
class EllFunction:
    """Non-decreasing bound ell(u) on curvature at gradient norm u.

    kind: "constant", "affine" or "power" (c*u**q + c0, growth exponent
    q in [0, 2), sub-quadratic).
    """

    kind: str
    params: tuple[float, ...] = ()

    @classmethod
    def constant(cls, c: float) -> "EllFunction":
        if c <= 0:
            raise ValueError(f"constant modulus must be positive, got {c}")
        return cls("constant", (float(c),))

    @classmethod
    def affine(cls, base: float, slope: float) -> "EllFunction":
        if base < 0 or slope < 0 or base + slope == 0:
            raise ValueError(f"affine modulus needs base, slope >= 0 and not both 0, got ({base}, {slope})")
        return cls("affine", (float(base), float(slope)))

    @classmethod
    def power(cls, coeff: float, exponent: float, offset: float = 0.0) -> "EllFunction":
        if coeff <= 0 or offset < 0:
            raise ValueError(f"power modulus needs coeff > 0 and offset >= 0, got ({coeff}, {offset})")
        if not 0 <= exponent < 2:
            raise ValueError(f"growth exponent must lie in [0, 2), got {exponent}")
        return cls("power", (float(coeff), float(exponent), float(offset)))

    def evaluate(self, u):
        if self.kind == "constant":
            return self.params[0] * np.ones_like(np.asarray(u, dtype=float)) if np.ndim(u) else self.params[0]
        if self.kind == "affine":
            base, slope = self.params
            return base + slope * u
        coeff, exponent, offset = self.params
        return coeff * np.power(u, exponent) + offset

    __call__ = evaluate

    def describe(self) -> str:
        if self.kind == "constant":
            return f"constant {self.params[0]:g}"
        if self.kind == "affine":
            return f"affine {self.params[0]:g} + {self.params[1]:g}*u"
        c, q, c0 = self.params
        return f"power {c:g}*u^{q:g} + {c0:g}"

    def to_config(self) -> dict:
        return {"kind": self.kind, "params": list(self.params)}

    @classmethod
    def from_config(cls, cfg: dict) -> "EllFunction":
        kind = cfg.get("kind")
        if kind not in ("constant", "affine", "power"):  # the three builders' names
            raise ValueError(f"cannot rebuild modulus of kind {kind!r}")
        return getattr(cls, kind)(*cfg.get("params", []))


def solve_gradient_bound(ell: EllFunction, budget: float) -> float:
    """Largest u with u^2 <= 2*ell(2u)*budget.

    Scans u = 0 and u = budget*2^k (k from -60 to the last finite u) as one
    array for the last sign change of u^2 - 2*ell(2u)*budget and bisects it
    for 60 iterations.  Assumes a single crossing on the scanned range (true
    for every sub-quadratic closed-form family here; multiple crossings would
    take the last).  Overflow gives inf or nan, as in Python floats.
    """
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if budget == 0:
        return 0.0

    def residual(u):
        return u * u - 2.0 * ell.evaluate(2.0 * u) * budget

    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.r_[0.0, np.ldexp(float(budget), np.arange(-60, 1025 - math.frexp(budget)[1]))]
        vals = residual(grid)
        crossings = np.flatnonzero((vals[:-1] <= 0) & (vals[1:] > 0))
        if not len(crossings):
            raise ValueError(
                f"no crossing of u^2 = 2*ell(2u)*budget up to u={grid[-1]:.3g} "
                f"for modulus ({ell.describe()}); the modulus may grow too fast"
            )
        lo, hi = grid[crossings[-1]:crossings[-1] + 2].tolist()
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if residual(mid) <= 0:
                lo = mid
            else:
                hi = mid
    return 0.5 * (lo + hi)


def component_gradient_bound(grad_bound: float, n: int, variance_slope: float,
                             noise_std: float) -> float:
    """Bound on any single component gradient implied by the variance model.

    Equals sqrt(2*(1 + n*slope)) * grad_bound + sqrt(2*n) * offset: a
    component gradient can exceed the full gradient by at most the
    worst-case share of the modeled deviation.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if variance_slope < 0 or noise_std < 0:
        raise ValueError("variance constants must be non-negative")
    return math.sqrt(2.0 * (1.0 + n * variance_slope)) * grad_bound + math.sqrt(2.0 * n) * noise_std


@dataclass(frozen=True)
class ConstantsBundle:
    """Derived constants tying one problem's statistics to one recipe.

    Fields unused by the recipe are None.  ``value_gap_bound`` caps the
    objective gap along the run, ``grad_norm_bound`` is the implied full
    gradient bound, ``component_grad_bound`` bounds any single component
    gradient, and ``smoothness_bound`` is the modulus evaluated at twice
    the component bound (the effective curvature constant).
    """

    recipe: int
    ell: EllFunction
    n: int
    initial_gap: float
    eps: float
    failure_prob: float | None = None
    variance_slope: float | None = None
    noise_std: float | None = None
    strong_convexity: float | None = None
    optimum_noise_std: float | None = None
    initial_distance_sq: float | None = None
    value_gap_bound: float | None = None
    grad_norm_bound: float | None = None
    component_grad_bound: float | None = None
    smoothness_bound: float | None = None
    gprime_heuristic: bool = False

    def _statistics(self) -> dict[str, float]:
        """The float statistics that are set, by name, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("recipe", "ell", "n", "gprime_heuristic")
                and getattr(self, f.name) is not None}

    def report(self) -> str:
        lines = [
            f"recipe = {self.recipe} ({RECIPES[self.recipe].name})",
            f"modulus = {self.ell.describe()}",
            f"n = {self.n}",
        ]
        lines += [f"{name} = {val:.17g}" for name, val in self._statistics().items()]
        if self.gprime_heuristic:
            lines.append("component_grad_bound_source = sampled heuristic")
        return "\n".join(lines)


# The float statistics constants_for_recipe checks, in order, each finite and > 0 or >= 0.
_SIGNS = {"initial_gap": ">", "eps": ">", "variance_slope": ">=", "noise_std": ">=",
          "strong_convexity": ">", "optimum_noise_std": ">=", "initial_distance_sq": ">",
          "component_grad_bound_value": ">"}


def constants_for_recipe(recipe: int, ell: EllFunction, *, initial_gap: float, n: int,
                         eps: float, variance_slope: float | None = None,
                         noise_std: float | None = None, failure_prob: float | None = None,
                         strong_convexity: float | None = None,
                         optimum_noise_std: float | None = None,
                         initial_distance_sq: float | None = None,
                         component_grad_bound_value: float | None = None,
                         gprime_heuristic: bool = False) -> ConstantsBundle:
    """Derive the constants bundle for a recipe from problem statistics, each
    finite: noise and slope values >= 0, the others > 0 (failure_prob < 1)."""
    if recipe not in RECIPES:
        raise ValueError(f"recipe must be one of {tuple(RECIPES)}, got {recipe}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if failure_prob is not None and not 0 < failure_prob < 1:
        raise ValueError(f"failure_prob must lie in (0, 1), got {failure_prob}")
    given = locals()  # the arguments, by name
    for name, sign in _SIGNS.items():
        value = given[name]
        if value is not None and not (math.isfinite(value) and (value > 0 or value == 0 and sign == ">=")):
            raise ValueError(f"{name} must be finite and {sign} 0, got {value}")
    record = RECIPES[recipe]
    missing = [name for name in record.needs if given[name] is None]
    if missing:
        raise ValueError(f"recipe {recipe} ({record.name}) needs statistics: "
                         f"{', '.join(missing)}")

    gap_bound = grad_bound = None
    if record.gap_bound is None:
        comp_bound = float(component_grad_bound_value)
    else:
        gap_bound = _float_or(record.gap_bound, SimpleNamespace(**given), math.inf)
        if not gap_bound < math.inf:
            raise ValueError(f"recipe {recipe}: the value-gap bound is not finite in floats")
        grad_bound = solve_gradient_bound(ell, gap_bound)
        comp_bound = component_gradient_bound(grad_bound, n, variance_slope, noise_std)

    with np.errstate(over="ignore"):  # a modulus past the largest float reads inf
        smooth = float(ell.evaluate(2.0 * comp_bound))
    return ConstantsBundle(
        recipe=recipe, ell=ell, n=n, initial_gap=initial_gap, eps=eps,
        failure_prob=failure_prob, variance_slope=variance_slope, noise_std=noise_std,
        strong_convexity=strong_convexity, optimum_noise_std=optimum_noise_std,
        initial_distance_sq=initial_distance_sq, value_gap_bound=gap_bound,
        grad_norm_bound=grad_bound, component_grad_bound=comp_bound,
        smoothness_bound=smooth, gprime_heuristic=gprime_heuristic,
    )


@dataclass(frozen=True)
class PlanCheck:
    """One named inequality of a plan, in the form lhs <= rhs."""

    name: str
    lhs: float
    rhs: float

    @property
    def satisfied(self) -> bool:
        return self.lhs <= self.rhs

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs


@dataclass(frozen=True)
class StepsizePlan:
    """A constant per-epoch stepsize and epoch count for one recipe."""

    recipe: int
    eta: float
    epochs: int
    bundle: ConstantsBundle
    checks: tuple[PlanCheck, ...]
    candidate_eta: float | None = None

    @property
    def valid(self) -> bool:
        return all(c.satisfied for c in self.checks)

    def per_step_size(self, batch_size: int = 1) -> float:
        """Per-component-step size eta / ceil(n / batch_size)."""
        steps = -(-self.bundle.n // batch_size)
        return self.eta / steps

    def report(self) -> str:
        lines = [
            self.bundle.report(),
            f"eta = {self.eta:.17g}",
            f"epochs = {self.epochs}",
        ]
        if self.candidate_eta is not None:
            lines.append(f"candidate_eta = {self.candidate_eta:.17g}")
        for c in self.checks:
            lines.append(
                f"check {c.name}: {'ok' if c.satisfied else 'VIOLATED'} "
                f"(lhs = {c.lhs:.17g}, rhs = {c.rhs:.17g}, margin = {c.margin:.17g})"
            )
        return "\n".join(lines)

    def to_config(self) -> dict:
        b = self.bundle
        return {
            "recipe": self.recipe,
            "eta": self.eta,
            "epochs": self.epochs,
            "n": b.n,
            "ell": b.ell.to_config(),
            "constants": b._statistics(),
            "heuristic": b.gprime_heuristic,
        }


class PlanInfeasibleError(RuntimeError):
    """No (eta, epochs) pair satisfies the recipe's inequalities."""

    def __init__(self, message: str, checks: tuple[PlanCheck, ...] = ()):
        super().__init__(message)
        self.checks = checks


def _float_or(f, x, fallback):
    """f(x), or ``fallback`` where floats cannot: a divisor underflowed to 0, a power overflowed."""
    try:
        return f(x)
    except (ZeroDivisionError, OverflowError):
        return fallback


class _Arithmetic(NamedTuple):
    """The number type a recipe's checks are evaluated in."""

    num: Callable
    sqrt: Callable
    log: Callable
    cbrt: Callable
    inf: object


_FLOATS = _Arithmetic(float, math.sqrt, math.log, lambda x: x ** (1.0 / 3.0), math.inf)

# The audit's interval type: 64-digit decimal ends, rounded outward by a
# floor and a ceiling context of their own (the thread's context is never
# used; its unary minus and abs round, so ends use copy_negate).  decimal
# rounds sqrt and ln half-even whatever the context's rounding, so an
# inexact result is widened by one unit outward.  Only what the recipes'
# checks use is here, with mpmath.iv's meaning: NaN and division by an
# interval that holds 0 give the whole line, <= and >= answer True, False
# or None (undecided), and == compares both ends exactly.  64 digits, not
# 60: mpmath's 60-digit intervals carry 203 bits (about 61 digits), and at
# 60 decimal digits a near tie such as recipe 3's T / ln(T) against 8L
# stays undecided where mpmath decides it.
_DIGITS = 64
_DOWN, _UP, _NEAR = (decimal.Context(prec=prec, rounding=rounding, Emin=decimal.MIN_EMIN,
                                     Emax=decimal.MAX_EMAX, traps=[])
                     for prec, rounding in ((_DIGITS, decimal.ROUND_FLOOR),
                                            (_DIGITS, decimal.ROUND_CEILING),
                                            (_DIGITS + 10, decimal.ROUND_HALF_EVEN)))
_ZERO, _INF = decimal.Decimal(0), decimal.Decimal("Infinity")
_NINF = _INF.copy_negate()
# ln(hi) <= ln(lo) + (hi - lo)/lo: an interval this narrow, relative to lo, takes one ln call
_NARROW = decimal.Decimal("1e-55")


def _nan_to(end, value):
    return value if end.is_nan() else end


class _Interval:
    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def __repr__(self):
        return f"_Interval({self.lo}, {self.hi})"

    def __add__(self, other):
        t = _coerce(other)
        return _Interval(_nan_to(_DOWN.add(self.lo, t.lo), _NINF),
                         _nan_to(_UP.add(self.hi, t.hi), _INF))

    def __sub__(self, other):
        t = _coerce(other)
        return _Interval(_nan_to(_DOWN.subtract(self.lo, t.hi), _NINF),
                         _nan_to(_UP.subtract(self.hi, t.lo), _INF))

    def __mul__(self, other):
        t = _coerce(other)
        if self.lo >= 0 and t.lo >= 0:
            return _Interval(_nan_to(_DOWN.multiply(self.lo, t.lo), _ZERO),
                             _nan_to(_UP.multiply(self.hi, t.hi), _INF))
        return _corners(_DOWN.multiply, _UP.multiply, self, t)

    __rmul__ = __mul__

    def __truediv__(self, other):
        t = _coerce(other)
        if t.lo <= 0 <= t.hi:
            return _WHOLE
        if self.lo >= 0 and t.lo > 0:
            return _Interval(_nan_to(_DOWN.divide(self.lo, t.hi), _ZERO),
                             _nan_to(_UP.divide(self.hi, t.lo), _INF))
        return _corners(_DOWN.divide, _UP.divide, self, t)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __pow__(self, k: int):
        lo, hi = self.lo, self.hi
        if k % 2 or lo >= 0:  # monotone
            return _Interval(_power(lo, k, _DOWN), _power(hi, k, _UP))
        if hi <= 0:  # an even power falls on the negatives
            return _Interval(_power(hi, k, _DOWN), _power(lo, k, _UP))
        return _Interval(_ZERO, _power(max(lo.copy_negate(), hi), k, _UP))

    def __abs__(self):
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return _Interval(self.hi.copy_negate(), self.lo.copy_negate())
        return _Interval(_ZERO, max(self.lo.copy_negate(), self.hi))

    def __le__(self, other):
        t = _coerce(other)
        if self.hi <= t.lo:
            return True
        return False if self.lo > t.hi else None

    def __ge__(self, other):
        return _coerce(other) <= self

    def __eq__(self, other):
        t = _coerce(other)
        return self.lo == t.lo and self.hi == t.hi


_WHOLE = _Interval(_NINF, _INF)


@functools.lru_cache(maxsize=64)
def _point(x) -> _Interval:
    """The exact interval of a float or int; NaN is the whole line."""
    if x != x:
        return _WHOLE
    d = decimal.Decimal(x)
    return _Interval(d, d) if d else _Interval(_ZERO, _ZERO)  # -0.0 is 0


def _coerce(x) -> _Interval:
    return x if type(x) is _Interval else _point(x)


def _corners(down, up, s: _Interval, t: _Interval) -> _Interval:
    """s op t for an op monotone in each argument over the box: its
    extremes sit at the corners; a NaN corner gives the whole line."""
    pairs = ((s.lo, t.lo), (s.lo, t.hi), (s.hi, t.lo), (s.hi, t.hi))
    lows, highs = [down(x, y) for x, y in pairs], [up(x, y) for x, y in pairs]
    if any(v.is_nan() for v in lows + highs):
        return _WHOLE
    return _Interval(min(lows), max(highs))


def _power(x, k: int, ctx):
    """x**k for an int k >= 1, rounded by ctx (_DOWN below, _UP above)."""
    if x < 0 and k % 2:
        return _power(x.copy_negate(), k, _UP if ctx is _DOWN else _DOWN).copy_negate()
    x = x.copy_abs()
    r = x
    for _ in range(k - 1):
        r = ctx.multiply(r, x)
    return r


def _widened(f, x):
    """(below, above) enclosing f(x) for a decimal.Context method that rounds
    half-even: its result, widened by one unit outward unless exact.  The
    flags are read from a fresh copy of _DOWN, so threads share none."""
    ctx = _DOWN.copy()
    ctx.clear_flags()
    r = f(ctx, x)
    if r.is_nan():
        return _NINF, _INF
    if not ctx.flags[decimal.Inexact]:
        return r, r
    return ctx.next_minus(r), ctx.next_plus(r)


def _iv_sqrt(x: _Interval) -> _Interval:
    lo, hi = _widened(decimal.Context.sqrt, x.lo)
    return _Interval(lo, hi if x.hi == x.lo else _widened(decimal.Context.sqrt, x.hi)[1])


def _iv_log(x: _Interval) -> _Interval:
    lo, hi = _widened(decimal.Context.ln, x.lo)
    if x.hi != x.lo:
        rel = _UP.divide(_UP.subtract(x.hi, x.lo), x.lo) if x.lo > 0 else _INF
        hi = _UP.add(hi, rel) if rel <= _NARROW else _widened(decimal.Context.ln, x.hi)[1]
    return _Interval(lo, hi)


def _cube_root(x, up: bool):
    """A bound on the real cube root of x, above if ``up``: Newton's
    iteration from the float root to 74 digits, rounded to 64 and moved
    outward until its cube, rounded the other way, confirms it."""
    if x < 0:  # the whole line's lower end, say
        return _cube_root(x.copy_negate(), not up).copy_negate()
    if not x or x == _INF:
        return x
    e = x.adjusted() // 3  # x = m * 10**(3e) with 1 <= m < 1000
    y = _NEAR.scaleb(decimal.Decimal(float(_NEAR.scaleb(x, -3 * e)) ** (1.0 / 3.0)), e)
    for _ in range(3):
        y = _NEAR.divide(_NEAR.add(_NEAR.multiply(2, y), _NEAR.divide(x, _NEAR.multiply(y, y))), 3)
    if up:
        y = _UP.plus(y)
        while _power(y, 3, _DOWN) < x:
            y = _UP.next_plus(y)
    else:
        y = _DOWN.plus(y)
        while _power(y, 3, _UP) > x:
            y = _DOWN.next_minus(y)
    return y


def _iv_cbrt(x: _Interval) -> _Interval:
    return _Interval(_cube_root(x.lo, False), _cube_root(x.hi, True))


_INTERVALS = _Arithmetic(_point, _iv_sqrt, _iv_log, _iv_cbrt, _Interval(_INF, _INF))


def _values(bundle: ConstantsBundle, ar: _Arithmetic, eta: float = 0.0,
            epochs: int = 1) -> SimpleNamespace:
    """Plan and bundle numbers in arithmetic ``ar``, plus its functions:
    the namespace ``c`` every check expression reads."""
    b = bundle

    def num(x):
        return None if x is None else ar.num(x)

    c = SimpleNamespace(
        sqrt=ar.sqrt, log=ar.log, cbrt=ar.cbrt, inf=ar.inf,
        eta=num(eta), T=num(epochs), n=num(b.n), gap=num(b.initial_gap), eps=num(b.eps),
        L=num(b.smoothness_bound), A=num(b.variance_slope), sig=num(b.noise_std),
        delta=num(b.failure_prob), mu=num(b.strong_convexity),
        sig_star=num(b.optimum_noise_std), d2=num(b.initial_distance_sq),
        gp=num(b.component_grad_bound))
    if pinned := RECIPES[b.recipe].pinned:
        coeff, log_arg = pinned
        c.ln = c.log(log_arg(c))
        c.pinned_eta = coeff * c.ln / (c.mu * c.T)
    return c


# Recipe 3's T / ln.  At n = T = 1 the log is 0 and the ratio undefined:
# NaN in floats (a violated check) and the whole line in intervals.
def _per_log(c):
    return c.T / c.ln if c.ln != 0 else c.T * math.nan


# Each check shape's (lhs, rhs), meaning lhs <= rhs, at c for the check's expression f.
_SHAPES = {
    "cap": lambda c, f: (c.eta, f(c)),
    "cube": lambda c, f: (c.T * c.eta**3, f(c)),
    "floor": lambda c, f: (f(c), c.T),
    "per_log": lambda c, f: (f(c), _per_log(c)),
    "pinned": lambda c, f: (abs(c.eta - c.pinned_eta), 1e-12 * c.pinned_eta),
    "accuracy": lambda c, f: (f(c), c.eps),
}


class _Recipe(NamedTuple):
    """All that the planners and :func:`constants_for_recipe` know of a recipe."""

    name: str
    needs: tuple[str, ...]  # statistics besides modulus, gap, n and eps, in refusal order
    checks: dict  # name -> (shape, expression)
    gap_bound: Callable | None = None  # value-gap bound; None takes the given component bound
    candidate: Callable | None = None  # a free stepsize's suggestion, blind to the cube sums
    # no cube caps: the planner derives them from the checks, (C/K)^(1/2) or (C/T)^(1/3) at a T
    pinned: tuple | None = None  # eta = coeff * ln(arg) / (mu * T): (coeff, arg)
    t0: Callable | None = None  # first epoch count of the pinned search, from n


def _failure_gap(s):  # a gap bound that holds with probability 1 - failure_prob
    return 4.0 * s.initial_gap / s.failure_prob


def _reshuffling_scale(c):  # the denominator of recipe 1's and 5's cap and suggestion
    return 2.0 * c.L * c.sqrt(c.A / c.n + 1.0)


def _permutation_scale(c):  # the denominator of recipe 2's cap and suggestion
    return c.L * c.sqrt(2.0 * (3.0 * c.A + 2.0))


def _convex_eta_cap(c):  # recipe 6's cap, and its suggested stepsize
    return c.sqrt(3.0 * c.eps / (2.0 * c.L)) / c.gp


RECIPES = {
    1: _Recipe(
        "random reshuffling, nonconvex", ("variance_slope", "noise_std", "failure_prob"),
        {"eta_cap": ("cap", lambda c: 1.0 / _reshuffling_scale(c)),
         "cube_sum": ("cube", lambda c: c.inf if c.sig == 0 else
                      c.n * c.gap / (c.L * c.L * c.sig * c.sig)),
         "epoch_floor": ("floor", lambda c: 32.0 * c.gap / (c.eta * c.delta * c.eps * c.eps))},
        gap_bound=_failure_gap,
        candidate=lambda c: c.sqrt(c.n) * c.eps / _reshuffling_scale(c)),
    2: _Recipe(
        "arbitrary permutations, nonconvex", ("variance_slope", "noise_std"),
        {"eta_cap": ("cap", lambda c: 1.0 / _permutation_scale(c)),
         "cube_sum": ("cube", lambda c: c.inf if c.sig == 0 else
                      2.0 * c.gap / (3.0 * c.sig * c.sig * c.L * c.L)),
         "epoch_floor": ("floor", lambda c: 8.0 * c.gap / (c.eta * c.eps * c.eps))},
        gap_bound=lambda s: 2.0 * s.initial_gap,
        candidate=lambda c: c.eps / _permutation_scale(c)),
    3: _Recipe(
        "random reshuffling, strongly convex",
        ("variance_slope", "noise_std", "failure_prob", "strong_convexity"),
        {"eta_formula": ("pinned", None),
         "epoch_floor_gap": ("floor", lambda c: 4.0 * c.sqrt(c.gap / (c.n * c.delta * c.eps))),
         "iteration_floor": ("per_log", lambda c: 4.0 / c.mu * 2.0),
         "curvature_cap": ("per_log", lambda c: 4.0 / c.mu * c.L
                           * c.sqrt(2.0 * (3.0 * c.A + 2.0))),
         "noise_cap": ("per_log", lambda c: 4.0 / c.mu * c.L * c.sig
                       * c.sqrt(8.0 / (c.n * c.mu * c.delta * c.eps))),
         # cube roots of T and L apart, as T * sig^2 * L^2 can overflow a float
         "gap_cube": ("per_log", lambda c: 4.0 / c.mu * c.cbrt(c.T)
                      * c.cbrt(c.sig * c.sig / (c.n * c.gap)) * c.cbrt(c.L) ** 2)},
        gap_bound=lambda s: max((3.0 * s.noise_std**2 / (4.0 * s.strong_convexity))
                                * math.log(4.0 / s.eps) + s.initial_gap, _failure_gap(s)),
        pinned=(4.0, lambda c: c.sqrt(c.n) * c.T),
        t0=lambda n: math.ceil(math.exp(1.5) / math.sqrt(n))),
    4: _Recipe(
        "arbitrary permutations, strongly convex",
        ("strong_convexity", "optimum_noise_std", "component_grad_bound_value"),
        {"eta_formula": ("pinned", None),
         # The pinned stepsize 6*ln(T)/(mu*T) is 0 at T = 1.
         "positive_eta": ("floor", lambda c: 2.0),
         "eta_cap": ("cap", lambda c: c.inf if c.sig_star == 0 else
                     c.gap * c.mu * c.mu / (9.0 * (c.mu * c.mu + c.L * c.L) * c.sig_star**2)),
         "epoch_floor_curvature": ("floor", lambda c: 12.0 * c.L * c.L * c.ln / (c.mu * c.mu)),
         "accuracy_budget": ("accuracy", lambda c: (c.gap + 108.0 * (c.mu * c.mu + c.L * c.L)
                                                    * c.sig_star**2 * c.ln * c.ln / c.mu**3)
                             / (c.T * c.T))},
        pinned=(6.0, lambda c: c.T),
        t0=lambda n: 3),
    5: _Recipe(
        "random reshuffling, convex",
        ("variance_slope", "noise_std", "failure_prob", "optimum_noise_std", "initial_distance_sq"),
        {"eta_cap": ("cap", lambda c: 1.0 / _reshuffling_scale(c)),
         "cube_sum_noise": ("cube", lambda c: c.inf if c.sig == 0 else
                            c.n * c.gap / (c.sig * c.sig * c.L * c.L)),
         "cube_sum_optimum_noise": ("cube", lambda c: c.inf if c.sig_star == 0 else
                                    3.0 * c.n * c.d2 / (2.0 * c.L * c.sig_star**2)),
         "epoch_floor": ("floor", lambda c: 4.0 * c.d2 / (c.eta * c.delta * c.eps))},
        gap_bound=_failure_gap,
        candidate=lambda c: c.sqrt(c.n * c.eps) / _reshuffling_scale(c)),
    6: _Recipe(
        "arbitrary permutations, convex", ("component_grad_bound_value", "initial_distance_sq"),
        {"eta_cap": ("cap", _convex_eta_cap),
         "epoch_floor": ("floor", lambda c: c.d2 / (c.eta * c.eps))},
        candidate=_convex_eta_cap),
}


def _sides(recipe: int, c: SimpleNamespace):
    """(name, lhs, rhs) of each of the recipe's checks at ``c``, lazily; NaN where a side fails."""
    for name, (shape, f) in RECIPES[recipe].checks.items():
        try:
            yield (name, *_SHAPES[shape](c, f))
        except (ZeroDivisionError, OverflowError):  # _float_or, inlined on this hot path
            yield (name, *_apart(shape, f, c))


# What a check's shape reads of c, all NaN: the sides of a shape whose own side raised.
_NAN_SIDES = SimpleNamespace(eta=math.nan, T=math.nan, ln=math.nan, pinned_eta=math.nan,
                             eps=math.nan)


def _apart(shape: str, f: Callable, c: SimpleNamespace) -> tuple:
    """(lhs, rhs) of a check that floats cannot evaluate whole, each side apart:
    NaN where that side fails, so the other keeps its value."""
    value = _float_or(f, c, math.nan)
    try:
        return _SHAPES[shape](c, lambda _: value)
    except (ZeroDivisionError, OverflowError):  # the shape's own side: T * eta**3
        return _SHAPES[shape](_NAN_SIDES, lambda _: value)


def _assemble(bundle: ConstantsBundle, eta: float, epochs: int,
              candidate: float | None) -> StepsizePlan:
    c = _values(bundle, _FLOATS, eta, epochs)
    return StepsizePlan(bundle.recipe, eta, epochs, bundle,
                        tuple(PlanCheck(*sides) for sides in _sides(bundle.recipe, c)),
                        candidate_eta=candidate)


def _audit_failures(plan: StepsizePlan) -> list[str]:
    return [name for name, ok in reevaluate_plan(plan) if not ok]


def _plan_free_eta(bundle: ConstantsBundle, target_epochs: int | None) -> StepsizePlan:
    """Planner for a stepsize not pinned to T.  Its caps: each ``cap`` bound and,
    per ``cube`` check T*eta^3 <= C and epoch floor K/eta <= T (K at eta = 1),
    (C/K)^(1/2), or (C/T)^(1/3) at a target T; a NaN cap refuses the plan."""
    recipe = RECIPES[bundle.recipe]
    epoch_floor = next(f for shape, f in recipe.checks.values() if shape == "floor")

    def floor(eta):  # the epoch floor at eta; inf where eta times the statistics is 0
        return _float_or(epoch_floor, _values(bundle, _FLOATS, eta), math.inf)

    K, c = floor(1.0), _values(bundle, _FLOATS, 1.0, target_epochs or 1)
    caps = {}
    for (shape, _), (name, _, bound) in zip(recipe.checks.values(), _sides(bundle.recipe, c)):
        if shape == "cap":
            caps[name] = bound
        elif shape == "cube":
            caps[name] = (float(np.cbrt(bound / c.T)) if target_epochs
                          else math.sqrt(bound / K) if K else math.inf)
    candidate = _float_or(recipe.candidate, c, math.nan)
    eta = float(np.min([candidate, *caps.values()]))  # NaN if any bound is
    if not floor(eta) < math.inf:
        by = next((f"the cap of {name!r}" for name, cap in caps.items()
                   if cap == eta or cap != cap), "the suggested stepsize")
        raise PlanInfeasibleError(f"recipe {bundle.recipe}: at eta = {eta:.6g}, set by {by}, "
                                  "the epoch floor is not finite in floats")
    if target_epochs is None:
        # The stepsize starts at its combined upper bound, so rounding
        # (ceil on the epoch floor, float error on caps met with
        # equality) can leave a check violated by an ulp or an epoch.
        # Shave eta geometrically and bump the epoch count until both
        # the float checks and the audit pass.  One epoch takes the
        # one-epoch target's plan, the largest stepsize the caps allow.
        shave = 2.0**-44
        for _ in range(120):
            if not (need := floor(eta)) < math.inf:  # eta shaved until the floor overflows
                break
            epochs = max(1, math.ceil(need))
            plan = _assemble(bundle, eta, epochs, candidate)
            if plan.valid:
                bad = _audit_failures(plan)
                if not bad:
                    return plan if epochs > 1 else _plan_free_eta(bundle, 1)
                if all(recipe.checks[name][0] == "floor" for name in bad):
                    for extra in (1, 2, 3):
                        bumped = _assemble(bundle, eta, epochs + extra, candidate)
                        if bumped.valid and not _audit_failures(bumped):
                            return bumped
            eta *= 1.0 - shave
            shave = min(shave * 4.0, 0.5)
        bad = next((c for c in plan.checks if not c.satisfied), None)
        detail = (f"; binding constraint {bad.name!r} (lhs = {bad.lhs:.6g}, "
                  f"rhs = {bad.rhs:.6g})") if bad else ""
        raise PlanInfeasibleError(
            f"recipe {bundle.recipe}: no feasible stepsize found{detail}", plan.checks)
    # At T the epoch floor K/eta <= T bounds eta below and the caps above: take
    # the top (np.cbrt is within an ulp), at most 7 ulps lower if floats or audit ask.
    for _ in range(8):
        plan = _assemble(bundle, eta, target_epochs, candidate)
        bad = [ch.name for ch in plan.checks if not ch.satisfied] or _audit_failures(plan)
        if not bad:
            return plan
        floors = [name for name in bad if recipe.checks[name][0] == "floor"]
        if floors:  # a smaller stepsize only raises the floor
            bad = floors
            break
        eta = math.nextafter(eta, 0.0)
    worst = next(ch for ch in plan.checks if ch.name == bad[0])
    raise PlanInfeasibleError(
        f"recipe {bundle.recipe}: target epoch count {target_epochs} violates "
        f"{worst.name!r} (lhs = {worst.lhs:.6g}, rhs = {worst.rhs:.6g})", plan.checks)


def _plan_pinned_eta(bundle: ConstantsBundle, target_epochs: int | None) -> StepsizePlan:
    """Planner for a stepsize pinned to T.

    T is accepted when the float checks and the interval audit pass at
    the pinned stepsize; a target is accepted or refused by that test,
    and without one the plan has the smallest accepted T.  Acceptance is
    monotone in T from the record's T0 on in exact arithmetic: t/ln(t)
    increases for t >= e, T^(2/3)/ln(sqrt(n)*T) for sqrt(n)*T >= e^(3/2),
    ln(T)/T and (a + b*ln(T)^2)/T^2 decrease for T >= e, and the other
    checks are constants <= T or hold at the pinned stepsize.  So T0 is
    ceil(e^(3/2)/sqrt(n)) <= 5 for recipe 3 and 3 for recipe 4.  Below T0
    (recipe 3 with n <= 3 can accept T = 1 and refuse T = 2) each T is
    tried; from T0 on, a galloping search and an integer bisection find
    the first T the floats accept, then the first from there the audit
    accepts.  A refusal names the violated check demanding the most
    epochs, else the first check the audit rejects.
    """
    r, recipe = bundle.recipe, RECIPES[bundle.recipe]

    def at(T: int) -> StepsizePlan:
        return _assemble(bundle, _values(bundle, _FLOATS, epochs=T).pinned_eta, T, None)

    def floats_ok(T: int) -> bool:  # at(T).valid, without building the plan
        c = _values(bundle, _FLOATS, epochs=T)
        c.eta = c.pinned_eta
        return all(lhs <= rhs for _, lhs, rhs in _sides(r, c))

    def accepted(T: int) -> bool:
        return (plan := at(T)).valid and not _audit_failures(plan)

    def binding(T: int, checks: tuple[PlanCheck, ...]) -> PlanCheck | None:
        """The violated check demanding the most epochs (first on ties), by shape;
        an accuracy budget falls like 1/T^2, a cap of 0 asks inf, others ask T."""
        ln = _values(bundle, _FLOATS, epochs=T).ln
        demand = {"floor": lambda ch: ch.lhs, "per_log": lambda ch: ch.lhs * ln,
                  "cap": lambda ch: recipe.pinned[0] * ln / (bundle.strong_convexity * ch.rhs),
                  "accuracy": lambda ch: math.sqrt(ch.lhs / ch.rhs) * T}
        need = {ch: _float_or(demand.get(recipe.checks[ch.name][0], lambda ch: float(T)), ch,
                              math.inf) for ch in checks if not ch.satisfied}
        return max(need, key=need.get) if need else None

    def refusal(what: str, T: int) -> PlanInfeasibleError:
        plan = at(T)
        bad = binding(T, plan.checks) or {c.name: c for c in plan.checks}[
            _audit_failures(plan)[0]]
        return PlanInfeasibleError(f"recipe {r}: {what} violates {bad.name!r} "
                                   f"(lhs = {bad.lhs:.6g}, rhs = {bad.rhs:.6g})", plan.checks)

    def first(ok: Callable[[int], bool], lo: int, step: int = 1) -> int:
        """Smallest T > lo with ok(T), for ok monotone above lo (not probed)."""
        while not ok(lo + step):
            lo, step = lo + step, 2 * step
            if lo + step > 2**1023:  # float(T) must stay finite
                raise refusal(f"no epoch count up to 2**1023 passes: epoch count {lo:.6g}", lo)
        hi = lo + step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if ok(mid) else (mid, hi)
        return hi

    if target_epochs is not None:
        if accepted(target_epochs):
            return at(target_epochs)
        raise refusal(f"target epoch count {target_epochs}", target_epochs)
    T0 = recipe.t0(bundle.n)
    for T in range(1, T0):
        if accepted(T):
            return at(T)
    T = first(floats_ok, T0 - 1)
    if not accepted(T):
        # The audit's boundary usually lies among the ulp(T) epoch counts that share float(T).
        T = first(accepted, T, max(1, int(math.ulp(float(T)))))
    return at(T)


def stepsize_plan(bundle: ConstantsBundle, target_epochs: int | None = None) -> StepsizePlan:
    """Derive (eta, epochs) satisfying every inequality of the recipe.

    Every returned plan passes its float checks and the interval audit
    of :func:`reevaluate_plan`.  Recipes 3 and 4 pin eta to the epoch
    count: without a target the plan has the smallest epoch count the
    checks and the audit accept.  Recipes with a free stepsize take,
    without a target, their combined caps shaved by 2**-44 relative, then
    four times as much per retry, until the checks and the audit pass,
    and the smallest epoch count its floor allows, or the one-epoch
    target's plan when that count is 1; at a target, the largest stepsize
    the caps allow at that count, less at most 7 ulps.  An unsatisfiable
    target raises :class:`PlanInfeasibleError` naming the binding
    constraint; a target below 1 or past the largest float, ValueError.
    """
    if target_epochs is not None and not 1 <= target_epochs <= sys.float_info.max:
        raise ValueError(f"target epoch count must be >= 1 and fit a float, got {target_epochs}")
    if RECIPES[bundle.recipe].pinned:
        return _plan_pinned_eta(bundle, target_epochs)
    return _plan_free_eta(bundle, target_epochs)


def reevaluate_plan(plan: StepsizePlan) -> list[tuple[str, bool]]:
    """Re-derive each plan inequality independently of the planner.

    Evaluates the recipe's checks in 64-digit interval arithmetic from the
    plan's stepsize, epoch count and bundle (its stored checks are not
    read).  An inequality holds only when the whole interval enclosing
    its lhs lies at or below the whole interval enclosing its rhs, so the
    audit never accepts what exact arithmetic rejects; an exact tie can
    be rejected.
    """
    c = _values(plan.bundle, _INTERVALS, plan.eta, plan.epochs)
    return [(name, (lhs <= rhs) is True) for name, lhs, rhs in _sides(plan.recipe, c)]


@dataclass(frozen=True)
class SublevelGradientEstimate:
    """Sampled lower estimate of the largest component gradient norm
    over the initial sublevel set.  Always a heuristic: sampling can
    only certify a lower bound."""

    value: float
    samples_accepted: int
    samples_drawn: int


# Rows per block of the sublevel sampler: each block is evaluated with
# one full_values call, so peak memory does not grow with the budget.
_SUBLEVEL_BLOCK = 256


def estimate_sublevel_gradient_bound(problem, budget: int,
                                     seed: int = 0) -> SublevelGradientEstimate:
    """Rejection-sample the initial sublevel set for component gradients.

    Draws points around the initial point (and the optimum when known),
    keeps those with objective at most the initial objective, and takes
    the max component gradient norm over kept points plus the anchors.
    Sample k takes its direction from one stream and, when k is even, an
    interior radius from the (k/2)-th uniform of a second; odd samples sit
    on the boundary.  Both streams are drawn in blocks of
    ``_SUBLEVEL_BLOCK`` samples, each a prefix of any larger draw, so
    larger budgets extend the same samples and the estimate is
    non-decreasing in the budget for a fixed seed.  A block takes one
    ``full_values`` call and one ``max_component_gradient_norms`` call on
    its kept points.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    w0 = problem.initial_point
    f0 = problem.full_value(w0)
    center = problem.optimum_point if problem.optimum_point is not None else w0
    mu = problem.strong_convexity
    if mu and problem.optimum_value is not None:
        radius = math.sqrt(max(2.0 * (f0 - problem.optimum_value) / mu, 0.0))
    elif mu:
        radius = float(np.linalg.norm(problem.full_gradient(w0))) / mu
    else:
        radius = 2.0 * max(float(np.linalg.norm(w0 - center)), 1.0)
    radius = max(radius, 1e-12)

    anchors = [w0] if problem.optimum_point is None else [w0, center]
    best = float(np.max(problem.max_component_gradient_norms(np.array(anchors))))
    directions_rng, radii_rng = (
        np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
        for key in (0x6E, 0x6F))
    accepted = 0
    tol = abs(f0) * 1e-12 + 1e-12
    for lo in range(0, budget, _SUBLEVEL_BLOCK):
        m = min(_SUBLEVEL_BLOCK, budget - lo)
        directions = directions_rng.standard_normal((m, problem.dim))
        # Alternate interior and boundary samples; extrema usually sit on
        # the sublevel boundary.  The block size is even, so even rows j
        # take the uniforms (lo + j)/2 in order.
        radii = np.full(m, radius)
        radii[::2] *= radii_rng.uniform(size=(m + 1) // 2) ** (1.0 / problem.dim)
        norms = np.sqrt(row_dots(directions, directions))
        live = norms > 0  # drops a zero direction (probability about 2**(-52 * dim))
        W = center + radii[live, None] * (directions[live] / norms[live, None])
        kept = W[problem.full_values(W) <= f0 + tol]
        accepted += len(kept)
        if len(kept):
            best = max(best, float(np.max(problem.max_component_gradient_norms(kept))))
    return SublevelGradientEstimate(best, accepted, budget)
