"""Core domain types, parameter validation, and the shared numeric policy.

Every other module builds on these types. All values are immutable after
construction, so one instance can be shared by any number of runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable, Optional

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
    "w_transform",
    "w_transform_array",
    "validate_spec",
]


class TimeBarrierError(Exception):
    """Base class for all library-specific failures."""


class DomainError(TimeBarrierError):
    """A time outside the valid domain [0, tc) was requested."""


class DivergentIntegralError(TimeBarrierError):
    """A barrier or settling integral diverges at the requested point."""


class StallError(TimeBarrierError):
    """Integrator step size underflowed before reaching the deadline."""

    def __init__(self, message: str, t: float, x: np.ndarray):
        super().__init__(message)
        self.t = t
        self.x = np.asarray(x, dtype=float)


class BlowUpError(TimeBarrierError):
    """The dynamics returned a non-finite derivative."""

    def __init__(self, message: str, t: float, x: np.ndarray):
        super().__init__(message)
        self.t = t
        self.x = np.asarray(x, dtype=float)


@dataclass(frozen=True)
class BarrierParams:
    """Parameter tuple (tc, beta, q, alpha) of the deadline decay law.

    ``tc`` is the hard deadline (seconds, > 0), ``beta`` the barrier exponent,
    ``q`` the state-decay gain (1/time for the alpha-homogeneous term) and
    ``alpha`` the decay exponent in (0, 1).

    ``m = beta * (1 - alpha)`` is computed once here and read everywhere else,
    so every module makes bit-identical admissibility decisions.
    """

    tc: float
    beta: float
    q: float
    alpha: float
    m: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "tc", float(self.tc))
        object.__setattr__(self, "beta", float(self.beta))
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "m", self.beta * (1.0 - self.alpha))


@dataclass(frozen=True)
class ParamVerdict:
    """Outcome of :func:`validate_params`."""

    admissible: bool
    m: float
    reason: Optional[str] = None


_POSITIVITY_CHECKS = (
    ("tc", "tc must be > 0"),
    ("beta", "beta must be > 0"),
    ("q", "q must be > 0"),
)


def validate_params(p: BarrierParams) -> ParamVerdict:
    """Check positivity and the barrier exponent condition m >= 1.

    Accepts any numeric tuple; inadmissible verdicts carry the first violated
    constraint by name, non-finite inputs get a distinct verdict.
    """
    for name in ("tc", "beta", "q", "alpha"):
        if not math.isfinite(getattr(p, name)):
            return ParamVerdict(False, p.m, f"non-finite parameter: {name}")
    for name, reason in _POSITIVITY_CHECKS:
        if getattr(p, name) <= 0.0:
            return ParamVerdict(False, p.m, reason)
    if not 0.0 < p.alpha < 1.0:
        return ParamVerdict(False, p.m, "alpha in (0,1) violated")
    if p.m < 1.0:
        return ParamVerdict(False, p.m, f"beta*(1-alpha)={p.m:g} < 1")
    return ParamVerdict(True, p.m, None)


def w_transform(v: float, t: float, p: BarrierParams) -> float:
    """Barrier-rescaled Lyapunov value v / (tc - t)**beta.

    This is the single implementation shared by the trajectory recorder and
    the certificate checker, so both see the same rounding. It is computed in
    log space for beta > 30 and wherever (tc - t)**beta leaves the float
    range; a value above the float range is inf in either form.
    """
    if not 0.0 <= t < p.tc:
        raise DomainError(f"t={t!r} outside [0, tc={p.tc!r})")
    if v == 0.0:
        return 0.0
    if v < 0.0:
        raise ValueError(f"negative Lyapunov value {v!r}")
    gap = p.tc - t
    if p.beta <= 30.0:
        try:
            power = gap**p.beta
        except OverflowError:
            power = 0.0  # out of range like an underflow: take the log form
        if power != 0.0:
            return v / power
    try:
        return math.exp(math.log(v) - p.beta * math.log(gap))
    except OverflowError:
        return math.inf


def _map_floats(fn, *args) -> np.ndarray:
    """``fn`` applied elementwise on Python floats; scalar arguments repeat.

    numpy's vectorized ``power``, ``exp``, ``log1p`` and ``expm1`` can differ
    from Python's ``**`` and ``math`` in the last bit, so every array form of
    a scalar formula evaluates those calls here. At least one argument must
    be an array.
    """
    lists = [a.tolist() if isinstance(a, np.ndarray) else repeat(a) for a in args]
    return np.fromiter(map(fn, *lists), dtype=float)


def w_transform_array(v, t, p: BarrierParams) -> np.ndarray:
    """:func:`w_transform` at every (v, t) pair, bit for bit.

    Pairs off the fast path (a time outside [0, tc), a negative or NaN V, a
    power that overflows or underflows) send the whole call through the
    scalar function, so its errors are raised and its log form is taken
    unchanged.
    """
    v = np.asarray(v, dtype=float)
    t = np.asarray(t, dtype=float)
    tc, beta = p.tc, p.beta
    if np.all((0.0 <= t) & (t < tc)) and np.all(v >= 0.0):
        nonzero = v != 0.0
        vn, gap = v[nonzero], tc - t[nonzero]
        try:
            if beta > 30.0:
                wn = _map_floats(
                    math.exp, _map_floats(math.log, vn) - beta * _map_floats(math.log, gap)
                )
            else:
                power = _map_floats(pow, gap, beta)
                wn = vn / power if np.all(power != 0.0) else None
        except OverflowError:
            wn = None
        if wn is not None:
            w = np.zeros(v.shape)
            w[nonzero] = wn
            return w
    return np.array(
        [w_transform(vi, ti, p) for vi, ti in zip(v.tolist(), t.tolist())], dtype=float
    )


@dataclass(frozen=True)
class NumericPolicy:
    """Numeric knobs shared by the integrator and the checkers.

    ``delta_end=None`` means the automatic terminal guard
    ``max(1e-9 * tc, 1e-12)``; integration never goes past ``tc - delta_end``.
    ``sign_eps=0`` selects exact sign() with event-detection handling of the
    origin; positive values select the regularization x / max(|x|, sign_eps).
    """

    eps_conv: float = 1e-8
    delta_end: Optional[float] = None
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    sign_eps: float = 0.0
    residual_tol: float = 1e-7

    def __post_init__(self):
        for name in ("eps_conv", "rel_tol", "abs_tol", "residual_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be strictly positive, got {value!r}")
        if not (math.isfinite(self.sign_eps) and self.sign_eps >= 0.0):
            raise ValueError(f"sign_eps must be nonnegative, got {self.sign_eps!r}")
        if self.delta_end is not None and not (
            math.isfinite(self.delta_end) and self.delta_end > 0.0
        ):
            raise ValueError(f"delta_end must be strictly positive, got {self.delta_end!r}")

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
    origin an exact equilibrium, rhs(0, t) = 0, for the clamp-and-hold
    convergence handling to be valid. ``tc`` bounds the time domain when the
    dynamics are only defined on [0, tc); None means unbounded.

    An ``rhs`` whose coordinates are decoupled, f_i depending only on (x_i, t),
    may declare it with the function attribute ``rhs.decoupled = True``
    (:func:`timebarrier.systems.make_time_barrier_componentwise` sets it).
    The integrator then holds each coordinate at exactly zero from its own
    eps_conv crossing instead of from the crossing of all of them. The
    declaration travels with the callable, so a spec that reuses the rhs
    keeps it. A plain wrapper function (a ``lambda``) does not, and steps
    every coordinate to the common event; but ``functools.wraps`` copies the
    attribute, so a wrapper made with it that couples the coordinates must
    set ``decoupled = False`` on itself, or the hold zeroes coordinates whose
    derivative is not zero.

    ``v`` and ``vdot`` are the optional Lyapunov value and its derivative along
    trajectories, each called as ``v(x, t)`` on one state; ``vdot`` may be
    absent even when ``v`` is present (the certificate checker then falls
    back to finite differences). The built-in laws write them as block forms
    (see :class:`_Blockwise`), which the trajectory recorder and the
    certificate evaluate on all samples in one call; any other callable is
    called once per sample, so ``dataclasses.replace(spec, v=other)``
    evaluates ``other``.
    """

    dim: int
    rhs: Callable[[np.ndarray, float], np.ndarray]
    label: str = ""
    v: Optional[Callable[[np.ndarray, float], float]] = None
    vdot: Optional[Callable[[np.ndarray, float], float]] = None
    tc: Optional[float] = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim!r}")
        if self.vdot is not None and self.v is None:
            raise ValueError("vdot without v is not meaningful")


class _Blockwise:
    """A V or dV/dt written once, as a block form: ``block(states, times)``
    maps an (n, dim) block of states and n times to the n values. Called on
    one state, it evaluates a block of one row and returns a float. A wrapper
    of it (say, one made with ``functools.wraps``) is called once per state.
    """

    __slots__ = ("block",)

    def __init__(self, block: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self.block = block

    def __call__(self, x, t) -> float:
        states = np.asarray(x, dtype=float).reshape(1, -1)
        return self.block(states, np.array([t], dtype=float)).item()


def _evaluate(fn, states: np.ndarray, times: np.ndarray) -> np.ndarray:
    """``fn`` (a spec's ``v`` or ``vdot``) at each row of ``states`` and each
    time: one call of its block form, or one call per row for any other
    callable."""
    if isinstance(fn, _Blockwise):
        return fn.block(states, times)
    return np.array([fn(x, t) for x, t in zip(states, times.tolist())], dtype=float)


# the sampling of validate_spec
_VALIDATE_SEED = 0
_POINTS_PER_DECADE = 64
_RADIUS_DECADES = (-6, 3)
_TIME_POINTS = 16


def validate_spec(spec: DynamicsSpec, horizon: float) -> list[str]:
    """Sampling-based check of the DynamicsSpec contract.

    Verifies rhs(0, t) = 0 and, when a Lyapunov evaluator is present,
    V(0, t) = 0 and V(x, t) > 0 for x != 0, over 64 seeded random radii in
    each decade from 1e-6 to 1e3 and 16 times in [0, horizon). Returns a list of
    human-readable problems (empty when the dynamics pass). The check is
    explicit rather than run at construction because sweeps build thousands
    of cheap spec instances.
    """
    rng = np.random.default_rng(_VALIDATE_SEED)
    problems: list[str] = []
    times = np.linspace(0.0, horizon, _TIME_POINTS, endpoint=False)
    origin = np.zeros(spec.dim)
    for t in times:
        f0 = np.asarray(spec.rhs(origin, float(t)), dtype=float)
        if not np.all(f0 == 0.0):
            problems.append(f"rhs(0, {t:g}) = {f0!r} is not the zero vector")
            break
    if spec.v is not None:
        for t in times:
            v0 = spec.v(origin, float(t))
            if v0 != 0.0:
                problems.append(f"V(0, {t:g}) = {v0!r} is not zero")
                break
        for decade in range(*_RADIUS_DECADES):
            radii = 10.0 ** rng.uniform(decade, decade + 1, _POINTS_PER_DECADE)
            for r in radii:
                direction = rng.standard_normal(spec.dim)
                norm = np.linalg.norm(direction)
                if norm == 0.0:
                    continue
                x = r * direction / norm
                t = float(rng.choice(times))
                value = spec.v(x, t)
                if not value > 0.0:
                    problems.append(
                        f"V(x, {t:g}) = {value!r} not positive at |x|={r:g}"
                    )
                    return problems
    return problems
