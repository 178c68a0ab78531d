"""Singularity-aware adaptive integration up to the convergence deadline.

The stepper is an embedded Dormand-Prince 5(4) pair with proportional-integral
step-size control and a quartic dense-output interpolant. Two things make it
deadline-aware:

* the step size is clamped to 0.5 * (tc - t), so steps shrink geometrically
  into the barrier and the locally huge coefficient beta/(tc - t) never
  straddles a step;
* a convergence event fires on the first accepted step that ends with
  max|x_i| <= eps_conv; the crossing is refined on the dense output, the state
  is clamped to exactly zero from there on (the dynamics must keep the origin
  an equilibrium), and the reported settling instant adds the closed-form
  remaining time of the reference law, capped at tc - delta_end.

The trial step of a one-dimensional spec runs on Python floats, with numpy
arrays only at the ``spec.rhs`` boundary; higher dimensions step on numpy
arrays. Both share the controller, the clamp, the step budget, the stall
checks, event refinement and the segment record. Each accepted step keeps its
seven stage derivatives, and the dense-output coefficients of all steps come
from one contraction after the loop. Sampling gathers each time's segment and
evaluates the quartic elementwise, so the value at a time does not depend on
which other times share the call.

Each simulate() call owns its mutable state; returned trajectories are
immutable and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analytic import remaining_settling_time, settling_bound
from .core import (
    BarrierParams,
    BlowUpError,
    DynamicsSpec,
    NumericPolicy,
    StallError,
    w_transform,
)

__all__ = [
    "TrajectorySample",
    "Trajectory",
    "SettlingReport",
    "simulate",
    "resample",
    "settling_report",
]

# Dormand-Prince 5(4) tableau with the Shampine quartic interpolant. The float
# tuples drive the one-dimensional step; the arrays, the vector step.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_B = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_A_ARR = tuple(np.array(row) for row in _A)
_B_ARR = np.array(_B)
_E_ARR = np.array(_E)
_P = np.array(
    [
        [1.0, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0.0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0.0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0.0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0.0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_KAPPA = 0.5  # geometric clamp h <= _KAPPA * (tc - t)
_MAX_STEPS = 1_000_000
_OUTPUT_POINTS = 512


@dataclass(frozen=True)
class TrajectorySample:
    """One recorded point: time, state, and the Lyapunov/barrier values."""

    t: float
    x: np.ndarray
    v: Optional[float]
    w: Optional[float]
    vdot: Optional[float]


@dataclass(frozen=True)
class SettlingReport:
    """Measured settling estimate versus the analytic bound."""

    converged_at: Optional[float]
    tau_bound: float
    reaches_zero: bool
    deadline_pass: bool
    v0: float
    tc: float


@dataclass
class Trajectory:
    """Integration record with dense-output support.

    ``event_time`` is the refined instant where max|x_i| crossed eps_conv;
    ``converged_at`` adds the closed-form remaining settling time of the
    reference law from that point, capped at ``t_end = tc - delta_end``. All
    recorded samples past ``event_time`` are exactly zero (clamped).
    """

    spec: DynamicsSpec
    params: BarrierParams
    policy: NumericPolicy
    samples: list[TrajectorySample]
    converged_at: Optional[float]
    event_time: Optional[float]
    terminal_norm: float
    step_count: int
    rejected_steps: int
    t_end: float
    _seg_t0: np.ndarray
    _seg_h: np.ndarray
    _seg_x0: np.ndarray
    _seg_coef: np.ndarray
    _x_final: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return np.array([s.t for s in self.samples])

    @property
    def states(self) -> np.ndarray:
        return np.array([s.x for s in self.samples])

    @property
    def v_values(self) -> np.ndarray:
        return np.array(
            [s.v if s.v is not None else np.nan for s in self.samples]
        )

    @property
    def w_values(self) -> np.ndarray:
        return np.array(
            [s.w if s.w is not None else np.nan for s in self.samples]
        )


def _maxnorm(x: np.ndarray) -> float:
    return float(np.max(np.abs(x))) if x.size else 0.0


def _rms(x: np.ndarray) -> float:
    return math.sqrt(float(x @ x) / x.size)


def _rhs_array(spec: DynamicsSpec, x: np.ndarray, t: float) -> np.ndarray:
    """``spec.rhs(x, t)`` as a float64 array of the shape of ``x``."""
    f = spec.rhs(x, t)
    if not isinstance(f, np.ndarray) or f.dtype != np.float64:
        f = np.asarray(f, dtype=float)
    if f.shape != x.shape:
        raise ValueError(
            f"rhs returned shape {f.shape}, expected {x.shape} ({spec.label})"
        )
    return f


def _blow_up(t: float, x: np.ndarray) -> BlowUpError:
    return BlowUpError(
        f"dynamics blow-up: non-finite derivative at t={t!r}, x={x!r}", t, x
    )


def _checked_rhs(spec: DynamicsSpec, x: np.ndarray, t: float) -> np.ndarray:
    f = _rhs_array(spec, x, t)
    if not np.all(np.isfinite(f)):
        raise _blow_up(t, x)
    return f


def _checked_rhs_float(spec: DynamicsSpec, x: float, t: float) -> float:
    """:func:`_checked_rhs` of a one-dimensional spec at the float ``x``."""
    xa = np.array([x])
    f = _rhs_array(spec, xa, t).item()
    if not math.isfinite(f):
        raise _blow_up(t, xa)
    return f


def _initial_step(spec, x0, f0, scale, limit):
    d0 = _rms(x0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, limit)
    if h0 <= 0.0:
        return limit
    x1 = x0 + h0 * f0
    f1 = _checked_rhs(spec, x1, h0)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, limit)


def _trial_float(spec, t, x, f, h, t_new, atol, rtol):
    """DOPRI5(4) trial step of a one-dimensional spec on Python floats.

    Returns (x_new, f_new, stage derivatives, RMS error norm). The terms with
    a zero weight (k2 in the solution and the error) are left out.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _A
    _, c2, c3, c4, c5, c6 = _C
    b1, _, b3, b4, b5, b6 = _B
    e1, _, e3, e4, e5, e6, e7 = _E
    k1 = f
    k2 = _checked_rhs_float(spec, x + h * (a21 * k1), t + c2 * h)
    k3 = _checked_rhs_float(spec, x + h * (a31 * k1 + a32 * k2), t + c3 * h)
    k4 = _checked_rhs_float(
        spec, x + h * (a41 * k1 + a42 * k2 + a43 * k3), t + c4 * h
    )
    k5 = _checked_rhs_float(
        spec, x + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4), t + c5 * h
    )
    k6 = _checked_rhs_float(
        spec,
        x + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5),
        t + c6 * h,
    )
    x_new = x + h * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
    k7 = _checked_rhs_float(spec, x_new, t_new)
    err = h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7)
    # the RMS norm of one component is its magnitude
    err_norm = abs(err) / (atol + rtol * max(abs(x), abs(x_new)))
    return x_new, k7, (k1, k2, k3, k4, k5, k6, k7), err_norm


def _trial_array(spec, t, x, f, h, t_new, atol, rtol):
    """DOPRI5(4) trial step on numpy arrays; returns what :func:`_trial_float` does."""
    K = np.empty((7, x.size))
    K[0] = f
    for s in range(1, 6):
        xs = x + h * (_A_ARR[s - 1] @ K[:s])
        K[s] = _checked_rhs(spec, xs, t + _C[s] * h)
    x_new = x + h * (_B_ARR @ K[:6])
    f_new = _checked_rhs(spec, x_new, t_new)
    K[6] = f_new
    err_vec = h * (_E_ARR @ K)
    scale = atol + rtol * np.maximum(np.abs(x), np.abs(x_new))
    return x_new, f_new, K, _rms(err_vec / scale)


def _dense_poly(x0, h, coef, theta):
    """Quartic dense output x0 + h*(c1*theta + ... + c4*theta**4) by Horner's
    rule, elementwise: floats and broadcasting arrays give the same bits."""
    c1, c2, c3, c4 = coef
    return x0 + h * (theta * (c1 + theta * (c2 + theta * (c3 + theta * c4))))


def _refine_event(x0, h, coef, eps_conv):
    """Bisect one step's dense output for its first crossing of eps_conv.

    ``coef`` is the step's (dim, 4) coefficient block. Returns (theta,
    max|x_i|) at the crossing, theta in (0, 1].
    """
    rows = list(zip(x0.tolist(), coef.tolist()))

    def norm(theta):
        return max(abs(_dense_poly(xi, h, ci, theta)) for xi, ci in rows)

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if norm(mid) <= eps_conv:
            hi = mid
        else:
            lo = mid
    return hi, norm(hi)


def simulate(
    spec: DynamicsSpec,
    x0,
    p: BarrierParams,
    policy: Optional[NumericPolicy] = None,
) -> Trajectory:
    """Integrate ``spec`` from ``x0`` on [0, tc - delta_end].

    Raises :class:`StallError` on step-size underflow before the deadline and
    :class:`BlowUpError` when the dynamics return a non-finite derivative.
    """
    policy = policy if policy is not None else NumericPolicy()
    x0 = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if x0.shape != (spec.dim,):
        raise ValueError(f"x0 shape {x0.shape} does not match dim={spec.dim}")
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be finite, got {x0!r}")
    tc = p.tc
    if not (math.isfinite(tc) and tc > 0.0):
        raise ValueError(f"tc must be finite and > 0, got {tc!r}")
    if spec.tc is not None and spec.tc < tc:
        raise ValueError(
            f"spec domain ends at {spec.tc!r}, before the deadline {tc!r}"
        )
    delta = policy.resolve_delta_end(tc)
    t_end = tc - delta
    eps_conv = policy.eps_conv
    rtol, atol = policy.rel_tol, policy.abs_tol

    # accepted steps: start time, length, start state, stage derivatives
    seg_t0: list[float] = []
    seg_h: list[float] = []
    seg_x0: list = []
    seg_k: list = []
    step_count = 0
    rejected = 0
    converged = False
    event: Optional[tuple[float, float]] = None

    if _maxnorm(x0) <= eps_conv:
        event = (0.0, _maxnorm(x0))
        x_final = np.zeros_like(x0)
    else:
        # overflow inside a trial step is handled by rejection or the
        # blow-up check, not by floating-point warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            t = 0.0
            f0 = _checked_rhs(spec, x0, t)
            scale0 = atol + rtol * np.abs(x0)
            h_prop = _initial_step(spec, x0, f0, scale0, min(_KAPPA * tc, t_end))
            if spec.dim == 1:
                trial, norm = _trial_float, abs
                x, f = x0.item(), f0.item()
            else:
                trial, norm = _trial_array, _maxnorm
                x, f = x0, f0
            err_prev = 1e-4

            end_guard = 8.0 * math.ulp(t_end)
            while True:
                remaining = t_end - t
                if remaining <= end_guard:
                    t = t_end
                    break
                if step_count + rejected >= _MAX_STEPS:
                    raise StallError(
                        f"step budget exhausted at t={t!r} without convergence",
                        t, np.atleast_1d(x),
                    )
                h = min(h_prop, _KAPPA * (tc - t), remaining)
                t_new = t_end if h >= remaining else t + h
                h_eff = t_new - t
                if h_eff <= 4.0 * math.ulp(t):
                    raise StallError(
                        f"step size underflow (stall) at t={t!r}", t, np.atleast_1d(x)
                    )

                x_new, f_new, k, err_norm = trial(spec, t, x, f, h_eff, t_new, atol, rtol)

                if err_norm <= 1.0:
                    seg_t0.append(t)
                    seg_h.append(h_eff)
                    seg_x0.append(x)
                    seg_k.append(k)
                    step_count += 1
                    if err_norm == 0.0:
                        factor = _MAX_FACTOR
                    else:
                        factor = _SAFETY * err_norm**-0.14 * err_prev**0.08
                    factor = min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                    err_prev = max(err_norm, 1e-12)
                    h_prop = h_eff * factor
                    t = t_new
                    if norm(x_new) <= eps_conv:
                        converged = True
                        break
                    x = x_new
                    f = f_new
                else:
                    rejected += 1
                    h_prop = h_eff * max(_MIN_FACTOR, _SAFETY * err_norm**-0.2)
                    if h_prop <= 4.0 * math.ulp(max(t, 0.01 * t_end)):
                        raise StallError(
                            f"step size underflow (stall) at t={t!r}", t, np.atleast_1d(x)
                        )
        x_final = np.zeros_like(x0) if converged else np.atleast_1d(x)

    n_seg = len(seg_t0)
    seg_t0_arr = np.array(seg_t0, dtype=float)
    seg_h_arr = np.array(seg_h, dtype=float)
    seg_x0_arr = np.array(seg_x0, dtype=float).reshape(n_seg, spec.dim)
    # one contraction for the quartic coefficients of every step: (n, dim, 4)
    stages = np.array(seg_k, dtype=float).reshape(n_seg, 7, spec.dim)
    seg_coef_arr = np.swapaxes(stages, 1, 2) @ _P

    if converged:
        theta, v_event = _refine_event(
            seg_x0_arr[-1], seg_h[-1], seg_coef_arr[-1], eps_conv
        )
        event = (seg_t0[-1] + theta * seg_h[-1], v_event)

    event_time = event[0] if event is not None else None
    if event is not None:
        rem = remaining_settling_time(p, event[1], event[0])
        if rem.reaches_zero:
            converged_at = min(max(rem.tau_bound, event[0]), t_end)
        else:
            converged_at = event[0]
    else:
        converged_at = None

    extra = [0.0, t_end]
    if event_time is not None:
        extra.append(event_time)
    sample_times = np.unique(
        np.concatenate(
            [np.linspace(0.0, t_end, _OUTPUT_POINTS), seg_t0_arr, np.array(extra)]
        )
    )

    traj = Trajectory(
        spec=spec,
        params=p,
        policy=policy,
        samples=[],
        converged_at=converged_at,
        event_time=event_time,
        terminal_norm=0.0,
        step_count=step_count,
        rejected_steps=rejected,
        t_end=t_end,
        _seg_t0=seg_t0_arr,
        _seg_h=seg_h_arr,
        _seg_x0=seg_x0_arr,
        _seg_coef=seg_coef_arr,
        _x_final=x_final,
    )
    states = _eval_trajectory(traj, sample_times, x0)
    samples = []
    for t_i, x_i in zip(sample_times.tolist(), states):
        if spec.v is not None:
            v_i = spec.v(x_i, t_i)
            w_i = w_transform(v_i, t_i, p)
            vd_i = spec.vdot(x_i, t_i) if spec.vdot is not None else None
        else:
            v_i = w_i = vd_i = None
        samples.append(TrajectorySample(t_i, x_i, v_i, w_i, vd_i))
    traj.samples = samples
    traj.terminal_norm = _maxnorm(states[-1])
    return traj


def _eval_trajectory(traj: Trajectory, times: np.ndarray, x_start=None) -> np.ndarray:
    """Dense-output evaluation at sorted times within [0, t_end]."""
    n_seg = traj._seg_t0.size
    zero_from = traj.event_time if traj.event_time is not None else np.inf

    if n_seg == 0:
        # immediate convergence: the initial state holds only at t = 0
        out = np.zeros((times.size, traj.spec.dim))
        start = x_start if x_start is not None else traj._x_final
        out[times == 0.0] = start
        return out

    k = np.searchsorted(traj._seg_t0, times, side="right") - 1
    k = np.clip(k, 0, n_seg - 1)
    h = traj._seg_h[k]
    theta = (times - traj._seg_t0[k]) / h
    out = _dense_poly(
        traj._seg_x0[k],
        h[:, None],
        np.moveaxis(traj._seg_coef[k], -1, 0),
        theta[:, None],
    )
    t_last = traj._seg_t0[-1] + traj._seg_h[-1]
    if zero_from >= t_last:
        out[times == t_last] = traj._x_final
    out[times > zero_from] = 0.0
    return out


def resample(traj: Trajectory, times) -> np.ndarray:
    """Dense-output states at the requested (nondecreasing) times.

    Uses the same interpolation path as the recorded samples, so evaluating at
    a recorded sample time reproduces the stored value bit for bit; past the
    convergence event the result is exactly zero.
    """
    times = np.atleast_1d(np.asarray(times, dtype=float))
    if times.size == 0:
        return np.zeros((0, traj.spec.dim))
    if np.any(np.diff(times) < 0.0):
        raise ValueError("times must be nondecreasing")
    if times[0] < 0.0 or times[-1] > traj.t_end:
        raise ValueError(
            f"times outside [0, {traj.t_end!r}] (last sample time)"
        )
    x_start = traj.samples[0].x if traj.samples else None
    return _eval_trajectory(traj, times, x_start)


def settling_report(traj: Trajectory, p: Optional[BarrierParams] = None) -> SettlingReport:
    """Compare the measured settling instant against the analytic bound."""
    p = p if p is not None else traj.params
    first = traj.samples[0]
    v0 = first.v if first.v is not None else _maxnorm(first.x)
    sb = settling_bound(p, v0)
    deadline_pass = traj.converged_at is not None and traj.converged_at <= traj.t_end
    return SettlingReport(
        converged_at=traj.converged_at,
        tau_bound=sb.tau_bound,
        reaches_zero=sb.reaches_zero,
        deadline_pass=deadline_pass,
        v0=v0,
        tc=p.tc,
    )
