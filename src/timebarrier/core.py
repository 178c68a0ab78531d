"""Core domain types, parameter validation, and the shared numeric policy.

Every other module builds on these types. All values are immutable after
construction, so one instance can be shared by any number of runs.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, NoReturn, Optional

import numpy as np

__all__ = [
    "TimeBarrierError",
    "DomainError",
    "DivergentIntegralError",
    "StallError",
    "BlowUpError",
    "BarrierParams",
    "ParamVerdict",
    "NumericPolicy",
    "DynamicsSpec",
    "validate_params",
    "w_transform_array",
    "validate_spec",
]


class TimeBarrierError(Exception):
    """Base class for all library-specific failures."""


class DomainError(TimeBarrierError, ValueError):
    """A time outside the law's domain [0, tc): ``t=... outside [0, tc=...)``,
    naming the first such time in order. A bad time is a bad value, so it
    is a ``ValueError`` too."""


class DivergentIntegralError(TimeBarrierError):
    """A barrier or settling integral diverges at the requested point."""


class _RunError(TimeBarrierError):
    """A run that stopped before its deadline, at time ``t`` in state ``x``."""

    def __init__(self, message: str, t: float, x: np.ndarray):
        super().__init__(message)
        self.t = t
        self.x = np.atleast_1d(np.asarray(x, dtype=float))


class StallError(_RunError):
    """Integrator step size underflowed before reaching the deadline."""


class BlowUpError(_RunError):
    """The dynamics returned a non-finite derivative, or a step of finite
    derivatives reached a non-finite state."""


@dataclass(frozen=True)
class BarrierParams:
    """Parameter tuple (tc, beta, q, alpha) of the deadline decay law.

    ``tc`` is the hard deadline (seconds, > 0), ``beta`` the barrier exponent
    (>= 0), ``q`` the state-decay gain (>= 0, 1/time for the alpha-homogeneous
    term) and ``alpha`` the decay exponent in (0, 1), all finite: the law's
    domain. Any numbers construct a tuple, but every function that computes
    from one outside the domain raises ``ValueError`` naming the first broken
    rule, the reason :func:`validate_params` gives. ``m = beta * (1 - alpha)``
    and that rule's verdict are computed once here and read everywhere else.
    """

    tc: float
    beta: float
    q: float
    alpha: float
    m: float = field(init=False)
    _fault: Optional[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("tc", "beta", "q", "alpha"):
            object.__setattr__(self, name, _float(getattr(self, name)))
        object.__setattr__(self, "m", self.beta * (1.0 - self.alpha))
        object.__setattr__(self, "_fault", _domain_fault(self))


def _domain_fault(p: BarrierParams) -> Optional[str]:
    """The first broken rule of the law's domain, or None inside it."""
    for name in ("tc", "beta", "q", "alpha"):
        if not math.isfinite(getattr(p, name)):
            return f"non-finite parameter: {name}"
    if p.tc <= 0.0:
        return "tc must be > 0"
    if p.beta < 0.0:
        return "beta must be >= 0"
    if p.q < 0.0:
        return "q must be >= 0"
    if not 0.0 < p.alpha < 1.0:
        return "alpha in (0,1) violated"
    return None


def _check_law(p: BarrierParams) -> None:
    """Raise ``ValueError`` naming the first broken rule of the law's domain."""
    if p._fault is not None:
        raise ValueError(p._fault)


def _float(x) -> float:
    """``float(x)``, with an int past the float range read as +-inf, as ``float("1e400")`` is."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _float_array(values) -> np.ndarray:
    """``np.asarray(values, dtype=float)``, with :func:`_float`'s reading of an int."""
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        return np.vectorize(_float, otypes=[float])(np.asarray(values, dtype=object))


def _time_error(t: float, tc: float) -> NoReturn:
    """Raise the one :class:`DomainError` of a time ``t`` outside [0, tc);
    per-sample callers compare ``0.0 <= t < tc`` inline and call this on failure."""
    raise DomainError(f"t={_float(t)!r} outside [0, tc={tc!r})")


def _x0_error(x0) -> NoReturn:
    """Raise the one ``ValueError`` of an initial state that is not finite."""
    raise ValueError(f"x0 must be finite, got {x0!r}")


def _check_times(times, tc: float) -> None:
    """Raise the :class:`DomainError` of the first element of ``times`` outside [0, tc)."""
    t = _float_array(times)
    outside = ~((0.0 <= t) & (t < tc))
    if outside.any():
        _time_error(t.flat[int(outside.argmax())], tc)


@dataclass(frozen=True)
class ParamVerdict:
    """Outcome of :func:`validate_params`."""

    admissible: bool
    reason: Optional[str] = None


def validate_params(p: BarrierParams) -> ParamVerdict:
    """The verdict on any tuple: the law's domain, then beta > 0, q > 0 and
    the barrier exponent condition m >= 1; the first broken rule is the reason.
    """
    reason = p._fault or (
        "beta must be > 0" if p.beta == 0.0
        else "q must be > 0" if p.q == 0.0
        else f"beta*(1-alpha)={p.m:g} < 1" if p.m < 1.0
        else None
    )
    return ParamVerdict(reason is None, reason)


def _map_floats(fn, *args) -> np.ndarray:
    """``fn`` applied elementwise on Python floats; scalar arguments repeat.

    numpy's vectorized ``power``, ``exp``, ``log1p`` and ``expm1`` can differ
    from Python's ``**`` and ``math`` in the last bit, so every array form of
    a scalar formula evaluates those calls here. At least one argument must
    be an array.
    """
    lists = [a.tolist() if isinstance(a, np.ndarray) else repeat(a) for a in args]
    return np.fromiter(map(fn, *lists), dtype=float)


def _dissipation_bound(v: np.ndarray, t: np.ndarray, p: BarrierParams) -> np.ndarray:
    """The dissipation bound -beta*V/(tc-t) - q*V**alpha at each (V, t) pair: the
    built-in law's dV/dt and the certificate's bound, stated once.

    V**alpha is taken on Python floats: numpy's vectorized power can differ
    in the last bit, and the certificate must not depend on the platform's
    loops. A bound past the float range is -inf, as float arithmetic gives it,
    with no warning.
    """
    with np.errstate(over="ignore"):
        return -p.beta * v / (p.tc - t) - p.q * _map_floats(operator.pow, v, p.alpha)


def _log_w(v, t, p: BarrierParams) -> np.ndarray:
    """log W = log V - beta*log(tc - t) at every pair with V > 0, on Python
    floats: the log form of :func:`w_transform_array`, and the certificate's
    reading of a W past the float range."""
    return _map_floats(math.log, v) - p.beta * _map_floats(math.log, p.tc - t)


def _or_on_overflow(fn, value):
    """``fn`` on Python floats, with ``value`` where its result leaves the float range."""
    def call(*args):
        try:
            return fn(*args)
        except OverflowError:
            return value
    return call


_finite = _or_on_overflow(math.isfinite, False)  # false for an int past the float range
_exp_or_inf = _or_on_overflow(math.exp, math.inf)
_MIN_NORMAL = sys.float_info.min  # below it a float is subnormal and has lost digits
_FLOAT64 = np.dtype(float)


def w_transform_array(v, t, p: BarrierParams) -> np.ndarray:
    """Barrier-rescaled Lyapunov value v / (tc - t)**beta at every (v, t)
    pair; ``v`` and ``t`` broadcast against each other, so one scalar pair
    gives a 0-d result.

    The one implementation of W, shared by the trajectory recorder and the
    certificate checker. An element takes the direct quotient where
    (tc - t)**beta is a normal float, and the log form (:func:`_log_w`)
    exactly where it is not (zero, subnormal or past the float range); a W
    past the float range is inf, with no warning. A tuple outside the law's
    domain raises ``ValueError``; then the first pair with a time outside
    [0, tc) raises ``DomainError``, or with a negative V ``ValueError``.
    """
    _check_law(p)
    v, t = np.broadcast_arrays(_float_array(v), _float_array(t))
    tc, beta = p.tc, p.beta
    bad = ~((0.0 <= t) & (t < tc)) | (v < 0.0)
    if bad.any():  # the first bad pair: its time first, then its V
        i = int(bad.argmax())
        _check_times(t.flat[i], tc)
        raise ValueError(f"negative Lyapunov value {v.flat[i].item()!r}")
    nonzero = v != 0.0
    vn, tn = v[nonzero], t[nonzero]
    try:
        power = _map_floats(operator.pow, tc - tn, beta)
    except OverflowError:  # an overflow takes the log form, as an underflow does
        power = _map_floats(_or_on_overflow(operator.pow, 0.0), tc - tn, beta)
    # a quotient by a power that is not a normal float is replaced by the log form below
    with np.errstate(over="ignore", divide="ignore"):
        wn = vn / power
    logs = power < _MIN_NORMAL
    if logs.any():
        wn[logs] = _map_floats(_exp_or_inf, _log_w(vn[logs], tn[logs], p))
    w = np.zeros(v.shape)
    w[nonzero] = wn
    return w


@dataclass(frozen=True)
class NumericPolicy:
    """Numeric knobs shared by the integrator and the checkers.

    - ``eps_conv``: a run's event is the first time max_i |x_i| <= eps_conv,
      after which its states are zero; the certificate skips samples with
      V <= eps_conv.
    - ``delta_end``: the terminal guard; integration never goes past
      ``tc - delta_end``. ``None`` means the automatic
      ``max(1e-9 * tc, 1e-12)``.
    - ``rel_tol`` and ``abs_tol``: the stepper accepts a step whose error
      estimate, over ``abs_tol + rel_tol * |x|`` per coordinate, has an RMS
      of at most 1; the certificate allows W a rise of that error in V.
    - ``residual_tol``: the slack of the certificate's decay and
      monotonicity checks; only the certificate reads it.
    """

    eps_conv: float = 1e-8
    delta_end: Optional[float] = None
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    residual_tol: float = 1e-7

    def __post_init__(self):
        for name in ("eps_conv", "rel_tol", "abs_tol", "residual_tol", "delta_end"):
            value = getattr(self, name)
            if name == "delta_end" and value is None:
                continue  # the automatic guard; None elsewhere is a TypeError
            try:
                finite = _finite(value)
            except TypeError:
                raise TypeError(f"{name} must be a real number, got {value!r}") from None
            if not (finite and value > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")

    def resolve_delta_end(self, tc: float) -> float:
        """Terminal guard for a given deadline; must stay below tc."""
        delta = self.delta_end if self.delta_end is not None else max(1e-9 * tc, 1e-12)
        if not 0.0 < delta < tc:
            raise ValueError(f"delta_end={delta!r} must lie in (0, tc={tc!r})")
        return delta


@dataclass(frozen=True)
class DynamicsSpec:
    """Right-hand side f(x, t) with optional Lyapunov data.

    ``rhs`` maps (state vector, time) to the state derivative and must keep the
    origin an exact equilibrium, rhs(0, t) = 0, for the clamp at convergence to
    be valid. ``tc`` bounds the time domain when the dynamics are only defined
    on [0, tc), a real number > 0 (else ``ValueError``); None or inf is unbounded.

    Every ``rhs``, not only a kernel, must be a pure function of (x, t): a failing
    trial calls it again, and the hold probes it (:mod:`timebarrier.integrate`).

    ``v`` and ``vdot`` are the optional Lyapunov value and its derivative along
    trajectories, each called as ``v(x, t)`` on one state; ``vdot`` may be
    absent even when ``v`` is present (the certificate checker then takes
    the Lie derivative of ``v`` along ``rhs``). How many states are
    evaluated in one call is :class:`_Blockwise`'s rule. ``v`` and ``vdot`` give
    one float per state and ``rhs`` an array of the state's shape, all real; every
    reader, the stepper included, reads a plain callable's values by :func:`_value`,
    so any other value raises its ``ValueError``. A field that is not callable raises too.
    """

    dim: int
    rhs: Callable[[np.ndarray, float], np.ndarray]
    label: str = ""
    v: Optional[Callable[[np.ndarray, float], float]] = None
    vdot: Optional[Callable[[np.ndarray, float], float]] = None
    tc: Optional[float] = None

    def __post_init__(self):
        if isinstance(self.dim, bool) or not isinstance(self.dim, (int, np.integer)):
            raise ValueError(f"dim must be an integer, got {self.dim!r}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim!r}")
        for name, fn in (("rhs", self.rhs), ("v", self.v), ("vdot", self.vdot)):
            if not (callable(fn) or (fn is None and name != "rhs")):
                raise ValueError(f"{name} must be callable, got {fn!r}")
        if self.vdot is not None and self.v is None:
            raise ValueError("vdot without v is not meaningful")
        if self.tc is not None and (isinstance(self.tc, bool) or not isinstance(self.tc, numbers.Real)
                                    or not _float(self.tc) > 0.0):  # an int past the range is inf
            raise ValueError(f"tc must be a real number > 0 or None, got {self.tc!r}")


class _Blockwise:
    """A V or dV/dt written once, as a block form: ``block(states, times)``
    maps an (n, dim) block of states and n times to the n values. Called on
    one state, it evaluates a block of one row and returns a float.

    Every built-in law writes its ``v`` and ``vdot`` this way. :func:`_evaluate`
    alone calls a block, so the recorder (V), the certificate (dV/dt at the samples
    it checks, or V along the rhs) and :func:`validate_spec` (V) evaluate one on all
    their states in one call, also in a user spec that reuses it (``v=law.v``). Any
    other callable, a wrapper of a block form (say, one made with
    ``functools.wraps``) included, is called once per state, so
    ``dataclasses.replace(spec, v=other)`` evaluates ``other``.
    """

    __slots__ = ("block",)

    def __init__(self, block: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self.block = block

    def __call__(self, x, t) -> float:
        states = np.asarray(x, dtype=float).reshape(1, -1)
        return self.block(states, np.array([t], dtype=float)).item()


class _Pointwise:
    """An rhs written once, as a plain-float kernel: ``kernel(x_i, t)`` maps
    one coordinate and the time to its derivative. Called as an rhs, on an
    array of any length, it maps the kernel over the coordinates and returns
    the array of derivatives. The integrator calls the kernel itself, bare,
    on floats, under the trial contract of :mod:`timebarrier.integrate`.
    """

    __slots__ = ("kernel",)

    def __init__(self, kernel: Callable[[float, float], float]):
        self.kernel = kernel

    def __call__(self, x, t) -> np.ndarray:
        kernel = self.kernel
        return np.array([kernel(xi, t) for xi in x.tolist()])


def _evaluate(spec: DynamicsSpec, name: str, states: np.ndarray, times: np.ndarray) -> np.ndarray:
    """The spec's ``name`` callable (``"v"``, ``"vdot"`` or ``"rhs"``) at each row of
    ``states`` and each time, as float64: one call of its block form, one map of its
    kernel over every (x_i, t), or, for any other callable, one call per row, in order,
    read by :func:`_value`. A V or dV/dt must give shape (n,) and an rhs ``states.shape``,
    or :func:`_value_fault`'s ``ValueError`` is raised. An empty block calls nothing."""
    fn = getattr(spec, name)
    want = states.shape if name == "rhs" else states.shape[:1]
    if not states.size:
        return np.zeros(want)
    if isinstance(fn, _Pointwise):  # shaped as states by construction
        at = np.repeat(times, states.shape[1]).tolist()
        f = np.fromiter(map(fn.kernel, states.ravel().tolist(), at), float, states.size)
        return f.reshape(states.shape)
    if isinstance(fn, _Blockwise):
        f = np.asarray(fn.block(states, times), dtype=float)
        if f.shape != want:  # named by one state's shape
            raise ValueError(_value_fault(spec, name, f.shape[1:], want[1:]))
        return f
    return np.array([_value(spec, name, fn(x, t), want[1:]) for x, t in zip(states, times.tolist())])


def _value(spec: DynamicsSpec, name: str, value, want: tuple) -> np.ndarray:
    """One value of the spec's ``name`` callable as float64 of shape ``want``, the one check of
    every value read per call; any other value raises :func:`_value_fault`'s ``ValueError``."""
    value = np.asarray(value)
    if value.shape != want:
        raise ValueError(_value_fault(spec, name, value.shape, want))
    if value.dtype is not _FLOAT64:
        if value.dtype.kind not in "biuf":  # numpy reads None as NaN and parses a string
            raise ValueError(_value_fault(spec, name, value.tolist()))
        value = value.astype(float, copy=False)
    return value


def _value_fault(spec: DynamicsSpec, name: str, got, want: Optional[tuple] = None) -> str:
    """The one text of a value that fails :func:`_value`'s check: of shape ``got`` where
    ``want`` is expected, or, with no ``want``, the value ``got``, which is not real-valued."""
    label = f" ({spec.label})" if spec.label else ""
    what = f"{got!r}, which is not real-valued" if want is None else f"shape {got}, expected {want}"
    return f"{name} returned {what}{label}"


# the sampling of validate_spec
_VALIDATE_SEED = 0
_POINTS_PER_DECADE = 64
_RADIUS_DECADES = (-6, 3)
_TIME_POINTS = 16


def validate_spec(spec: DynamicsSpec, horizon: float) -> list[str]:
    """Sampling-based check of the DynamicsSpec contract.

    Verifies that rhs(0, t) is zero and, when a Lyapunov evaluator is
    present, V(0, t) = 0 and V(x, t) > 0 for x != 0, over 64 seeded random
    radii in each decade from 1e-6 to 1e3 and 16 times in [0, horizon), all
    evaluated in one :func:`_evaluate` call each, so a value of the wrong
    shape raises its ``ValueError``. Returns a list of human-readable problems
    (empty when the dynamics pass), at most one of each kind. The check is
    explicit rather than run at construction because sweeps build thousands
    of cheap spec instances. A ``horizon`` that is not finite, not > 0 or
    past ``spec.tc`` raises ``ValueError`` naming it, before any call.
    """
    if not (_finite(horizon) and horizon > 0.0 and (spec.tc is None or horizon <= spec.tc)):
        raise ValueError(f"horizon={horizon!r} must be finite, > 0 and at most tc={spec.tc!r}")
    rng = np.random.default_rng(_VALIDATE_SEED)
    problems: list[str] = []
    times = np.linspace(0.0, horizon, _TIME_POINTS, endpoint=False)
    states = [np.zeros(spec.dim)] * _TIME_POINTS
    for t, f0 in zip(times, _evaluate(spec, "rhs", np.array(states), times)):
        if not np.all(f0 == 0.0):
            problems.append(f"rhs(0, {t:g}) = {f0!r} is not the zero vector")
            break
    if spec.v is None:
        return problems
    # V at the origin at each time, then at the random states
    at = times.tolist()
    radii = []
    for decade in range(*_RADIUS_DECADES):
        for r in 10.0 ** rng.uniform(decade, decade + 1, _POINTS_PER_DECADE):
            direction = rng.standard_normal(spec.dim)
            norm = np.linalg.norm(direction)
            if norm == 0.0:
                continue
            states.append(r * direction / norm)
            at.append(float(rng.choice(times)))
            radii.append(r)
    values = _evaluate(spec, "v", np.array(states), np.array(at)).tolist()
    for t, value in zip(times, values[:_TIME_POINTS]):
        if value != 0.0:
            problems.append(f"V(0, {t:g}) = {value!r} is not zero")
            break
    for r, t, value in zip(radii, at[_TIME_POINTS:], values[_TIME_POINTS:]):
        if not value > 0.0:
            problems.append(f"V(x, {t:g}) = {value!r} not positive at |x|={r:g}")
            break
    return problems
