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
  remaining time of the reference law, capped at tc - delta_end. When the
  rhs declares decoupled coordinates (``rhs.decoupled = True``, see
  :class:`~timebarrier.core.DynamicsSpec`), each
  coordinate is also held at exactly zero, with a zero derivative and
  outside the error norm, from the first accepted step that ends with
  |x_i| <= eps_conv. This is the sliding-mode (Filippov) solution of the
  discontinuous law; with an exact sign() a settled coordinate would
  otherwise flip around zero (chattering) and shrink every step until the
  last coordinate settles.

The trial step of a one-dimensional spec runs on Python floats, with numpy
arrays only at the ``spec.rhs`` boundary; higher dimensions step on numpy
arrays. Both share the controller, the clamp, the step budget, the stall
checks, event refinement and the segment record. Each accepted step keeps its
seven stage derivatives, and the dense-output coefficients of all steps come
from one contraction after the loop. Sampling gathers each time's segment and
evaluates the quartic elementwise, so the value at a time does not depend on
which other times share the call.

A sweep steps many one-dimensional runs as lockstep lanes (``_step_lanes``):
the float trial step's body is elementwise, so the same code runs on arrays
over lanes, and each lane keeps its own time, step size, error history,
counts and event. Every ``**`` of the law and of the controller stays on
Python floats (``map(pow, ...)``), because numpy's vectorized power, exp,
log1p and expm1 can differ from them in the last bit; a lane therefore takes
exactly the steps of a plain run. A finished lane's step record goes back
through simulate(), which skips its loop and runs the one record builder.

The record of a run is a set of arrays computed once, after the loop: the
output times, the states, and V, W and vdot at each time (in one block call
where the spec's V or vdot is a built-in block form). The certificate, the closed-form oracle and
the CSV writer all read these arrays.

Each simulate() call owns its mutable state; the arrays of a returned
trajectory are read-only, so it is safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from typing import Optional

import numpy as np

from .analytic import remaining_settling_time, settling_bound
from .core import (
    BarrierParams,
    BlowUpError,
    DynamicsSpec,
    NumericPolicy,
    StallError,
    _evaluate,
    _map_floats,
    w_transform_array,
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
    """One recorded point: time, state, and the Lyapunov/barrier values.

    A view of one row of a :class:`Trajectory`'s arrays.
    """

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

    ``times``, ``states`` (one row per time), ``v_values``, ``w_values`` and
    ``vdot_values`` are computed once by :func:`simulate` and are read-only;
    V, W and vdot are NaN where the spec has no evaluator for them.
    ``event_time`` is the refined instant where max|x_i| crossed eps_conv;
    ``converged_at`` adds the closed-form remaining settling time of the
    reference law from that point, capped at ``t_end = tc - delta_end``. All
    recorded states past ``event_time`` are exactly zero (clamped).
    """

    spec: DynamicsSpec
    params: BarrierParams
    policy: NumericPolicy
    times: np.ndarray
    states: np.ndarray
    v_values: np.ndarray
    w_values: np.ndarray
    vdot_values: np.ndarray
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

    @cached_property
    def samples(self) -> list[TrajectorySample]:
        """The record as one :class:`TrajectorySample` per time, built on
        first access; V, W and vdot are None where the spec has none."""
        n = self.times.size
        none = [None] * n
        has_v = self.spec.v is not None
        v = self.v_values.tolist() if has_v else none
        w = self.w_values.tolist() if has_v else none
        vdot = self.vdot_values.tolist() if self.spec.vdot is not None else none
        return [
            TrajectorySample(*row)
            for row in zip(self.times.tolist(), self.states, v, w, vdot)
        ]


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


def _initial_step(spec, x0, f0, policy, limit):
    scale = policy.abs_tol + policy.rel_tol * np.abs(x0)
    d0 = _rms(x0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    if math.isnan(h0):
        # both scaled norms overflowed (inf / inf): no step size can be proposed
        raise StallError(
            f"tolerances rel_tol={policy.rel_tol!r}, abs_tol={policy.abs_tol!r} "
            "are too small: the scaled initial state overflows",
            0.0,
            x0,
        )
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


def _trial(rhs, larger, atol, rtol, t, x, f, h, t_new):
    """DOPRI5(4) trial step of one-dimensional runs, elementwise.

    ``t, x, f, h, t_new`` are Python floats (one run, ``larger=max``) or
    arrays over lanes (``larger=np.maximum``); every operation is elementwise
    IEEE arithmetic, so a lane gets the bits of the float step. Returns
    (x_new, f_new, stage derivatives, RMS error norm). The terms with a zero
    weight (k2 in the solution and the error) are left out.
    """
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65) = _A
    _, c2, c3, c4, c5, c6 = _C
    b1, _, b3, b4, b5, b6 = _B
    e1, _, e3, e4, e5, e6, e7 = _E
    k1 = f
    k2 = rhs(x + h * (a21 * k1), t + c2 * h)
    k3 = rhs(x + h * (a31 * k1 + a32 * k2), t + c3 * h)
    k4 = rhs(x + h * (a41 * k1 + a42 * k2 + a43 * k3), t + c4 * h)
    k5 = rhs(x + h * (a51 * k1 + a52 * k2 + a53 * k3 + a54 * k4), t + c5 * h)
    k6 = rhs(
        x + h * (a61 * k1 + a62 * k2 + a63 * k3 + a64 * k4 + a65 * k5), t + c6 * h
    )
    x_new = x + h * (b1 * k1 + b3 * k3 + b4 * k4 + b5 * k5 + b6 * k6)
    k7 = rhs(x_new, t_new)
    err = h * (e1 * k1 + e3 * k3 + e4 * k4 + e5 * k5 + e6 * k6 + e7 * k7)
    # the RMS norm of one component is its magnitude
    err_norm = abs(err) / (atol + rtol * larger(abs(x), abs(x_new)))
    return x_new, k7, (k1, k2, k3, k4, k5, k6, k7), err_norm


def _trial_array(rhs, atol, rtol, t, x, f, h, t_new, live=None):
    """DOPRI5(4) trial step on numpy arrays; returns what :func:`_trial` does.

    ``live``, a boolean mask, limits the RMS error norm to those coordinates.
    """
    K = np.empty((7, x.size))
    K[0] = f
    for s in range(1, 6):
        xs = x + h * (_A_ARR[s - 1] @ K[:s])
        K[s] = rhs(xs, t + _C[s] * h)
    x_new = x + h * (_B_ARR @ K[:6])
    f_new = rhs(x_new, t_new)
    K[6] = f_new
    err_vec = h * (_E_ARR @ K)
    scaled = err_vec / (atol + rtol * np.maximum(np.abs(x), np.abs(x_new)))
    return x_new, f_new, K, _rms(scaled if live is None else scaled[live])


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


@dataclass
class _Steps:
    """What a stepping loop hands the record builder.

    Per accepted step: start time, length, start state and the seven stage
    derivatives, as anything ``np.array`` takes. ``x_last`` is the state the
    run ended in when it did not converge. A run whose initial state is
    already within eps_conv has converged with no step.
    """

    t0: object
    h: object
    x0: object
    stages: object
    rejected: int
    converged: bool
    x_last: object


def _prepare(spec, x0, p, policy):
    """simulate()'s argument checks: (policy, x0 array, tc, t_end)."""
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
    return policy, x0, tc, tc - policy.resolve_delta_end(tc)


def _start(spec, x0, tc, t_end, policy):
    """The derivative at t = 0 and the first proposed step size."""
    f0 = _checked_rhs(spec, x0, 0.0)
    return f0, _initial_step(spec, x0, f0, policy, min(_KAPPA * tc, t_end))


def simulate(
    spec: DynamicsSpec,
    x0,
    p: BarrierParams,
    policy: Optional[NumericPolicy] = None,
    *,
    _steps: Optional[_Steps] = None,
) -> Trajectory:
    """Integrate ``spec`` from ``x0`` on [0, tc - delta_end].

    Raises :class:`StallError` on step-size underflow before the deadline or
    when the tolerances are too small to scale the initial state, and
    :class:`BlowUpError` when the dynamics return a non-finite derivative.
    ``_steps`` is the finished step record of this same run, stepped as a
    lane of a sweep; the trajectory is then built from it without stepping.
    """
    policy, x0, tc, t_end = _prepare(spec, x0, p, policy)
    if _steps is None:
        _steps = _step(spec, x0, tc, t_end, policy)
    return _record(spec, x0, p, policy, t_end, _steps)


def _step(spec, x0, tc, t_end, policy) -> _Steps:
    """The stepping loop of one run.

    A decoupled spec of dim >= 2 holds each coordinate at zero from its own
    eps_conv crossing (see the module docstring); the trial step then takes
    the coordinates not yet held as its ``live`` mask.
    """
    eps_conv = policy.eps_conv
    rtol, atol = policy.rel_tol, policy.abs_tol
    # accepted steps: start time, length, start state, stage derivatives
    seg_t0: list[float] = []
    seg_h: list[float] = []
    seg_x0: list = []
    seg_k: list = []
    step_count = 0
    rejected = 0
    if _maxnorm(x0) <= eps_conv:
        return _Steps(seg_t0, seg_h, seg_x0, seg_k, 0, True, x0)
    converged = False
    # overflow inside a trial step is handled by rejection or the blow-up
    # check, not by floating-point warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = 0.0
        f0, h_prop = _start(spec, x0, tc, t_end, policy)
        if spec.dim == 1:
            trial = partial(_trial, partial(_checked_rhs_float, spec), max, atol, rtol)
            norm = abs
            x, f = x0.item(), f0.item()
        else:
            trial = partial(_trial_array, partial(_checked_rhs, spec), atol, rtol)
            norm = _maxnorm
            x, f = x0, f0
        hold = spec.dim > 1 and getattr(spec.rhs, "decoupled", False) is True
        err_prev = 1e-4

        end_guard = 8.0 * math.ulp(t_end)
        while True:
            remaining = t_end - t
            if remaining <= end_guard:
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

            x_new, f_new, k, err_norm = trial(t, x, f, h_eff, t_new)

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
                if hold:
                    settled = np.abs(x_new) <= eps_conv
                    if settled.any():
                        # rhs(0, t) = 0 and decoupling make the zero derivative exact
                        x_new = np.where(settled, 0.0, x_new)
                        f_new = np.where(settled, 0.0, f_new)
                        trial = partial(trial, live=~settled)
                x = x_new
                f = f_new
            else:
                rejected += 1
                h_prop = h_eff * max(_MIN_FACTOR, _SAFETY * err_norm**-0.2)
                if h_prop <= 4.0 * math.ulp(max(t, 0.01 * t_end)):
                    raise StallError(
                        f"step size underflow (stall) at t={t!r}", t, np.atleast_1d(x)
                    )
    return _Steps(seg_t0, seg_h, seg_x0, seg_k, rejected, converged, x)


def _record(spec, x0, p, policy, t_end, steps: _Steps) -> Trajectory:
    """The one post-loop record builder: segments, event, samples, V/W/vdot."""
    dim = spec.dim
    n_seg = len(steps.t0)
    seg_t0_arr = np.array(steps.t0, dtype=float)
    seg_h_arr = np.array(steps.h, dtype=float)
    seg_x0_arr = np.array(steps.x0, dtype=float).reshape(n_seg, dim)
    # one contraction for the quartic coefficients of every step: (n, dim, 4)
    stages = np.array(steps.stages, dtype=float).reshape(n_seg, 7, dim)
    seg_coef_arr = np.swapaxes(stages, 1, 2) @ _P

    event = None
    if steps.converged:
        x_final = np.zeros_like(x0)
        if n_seg:
            theta, v_event = _refine_event(
                seg_x0_arr[-1], seg_h_arr[-1].item(), seg_coef_arr[-1], policy.eps_conv
            )
            event = (seg_t0_arr[-1].item() + theta * seg_h_arr[-1].item(), v_event)
        else:
            event = (0.0, _maxnorm(x0))
    else:
        x_final = np.atleast_1d(np.asarray(steps.x_last, dtype=float))

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

    absent = np.full(sample_times.size, np.nan)  # V, W or vdot without an evaluator
    traj = Trajectory(
        spec=spec,
        params=p,
        policy=policy,
        times=sample_times,
        states=absent,
        v_values=absent,
        w_values=absent,
        vdot_values=absent,
        converged_at=converged_at,
        event_time=event_time,
        terminal_norm=0.0,
        step_count=n_seg,
        rejected_steps=steps.rejected,
        t_end=t_end,
        _seg_t0=seg_t0_arr,
        _seg_h=seg_h_arr,
        _seg_x0=seg_x0_arr,
        _seg_coef=seg_coef_arr,
        _x_final=x_final,
    )
    # the dense output reads the segment record, so the states come second
    states = _eval_trajectory(traj, sample_times, x0)
    traj.states = states
    traj.terminal_norm = _maxnorm(states[-1])
    if spec.v is not None:
        traj.v_values = _evaluate(spec.v, states, sample_times)
        traj.w_values = w_transform_array(traj.v_values, sample_times, p)
        if spec.vdot is not None:
            traj.vdot_values = _evaluate(spec.vdot, states, sample_times)
    for values in (traj.times, traj.states, traj.v_values, traj.w_values, traj.vdot_values):
        values.flags.writeable = False
    return traj


# rows of the lane table of _step_lanes; the law's parameters follow
_T, _X, _F, _H, _ERR, _ACC, _REJ, _TC, _TEND, _GUARD, _LAW = range(11)
# one accepted step of a lane's record: t0, h, x0 and k1..k7 as float64
_ROW_BYTES = 10 * 8


def _lane_start(spec, x0, p, policy, law) -> Optional[list]:
    """simulate()'s checks and start for a lane: the lane's column of the
    lane table, or None when the run takes no step (|x0| <= eps_conv).

    ``spec`` is one-dimensional and ``law`` holds its parameters for the
    lane-form rhs. Raises what simulate() raises before its first step.
    """
    policy, x0, tc, t_end = _prepare(spec, x0, p, policy)
    if _maxnorm(x0) <= policy.eps_conv:
        return None
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f0, h_prop = _start(spec, x0, tc, t_end, policy)
    guard = 8.0 * math.ulp(t_end)
    return [0.0, x0.item(), f0.item(), h_prop, 1e-4, 0.0, 0.0, tc, t_end, guard, *law]


def _step_lanes(starts, rhs, policy, width):
    """Step one-dimensional runs as lockstep lanes of a fixed-width pool.

    ``starts`` yields (key, column) pairs, the column from
    :func:`_lane_start`; the pool takes them in order as lanes free up.
    ``rhs(x, t, *law)`` is the lane form of the runs' rhs, NaN where the
    one-state rhs would raise. Every lane follows :func:`_step` to the bit:
    its own t, step size, error history, counts, clamp, budget, stall checks
    and convergence event. Yields (key, steps) as each lane finishes, with
    steps None when the run raised or stalled; re-running it through
    simulate() raises the same error. The starts and the consumer run
    under the caller's ``np.errstate``, which the stepping alone overrides.
    """
    atol, rtol, eps_conv = policy.abs_tol, policy.rel_tol, policy.eps_conv
    starts = iter(starts)
    keys: list = []
    records: list = []  # per lane: one _ROW_BYTES row per accepted step
    lanes = None
    while True:
        fresh = list(islice(starts, width - len(keys)))
        if fresh:
            keys += [key for key, _ in fresh]
            records += [bytearray() for _ in fresh]
            block = np.array([column for _, column in fresh], dtype=float).T
            lanes = block if lanes is None else np.concatenate([lanes, block], axis=1)
        if not keys:
            return
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            while True:
                t, x, f, h_prop, err_prev, acc_count, rejected, tc, t_end, guard = lanes[:_LAW]
                law = lanes[_LAW:]

                remaining = t_end - t
                done = remaining <= guard
                h = np.minimum(np.minimum(h_prop, _KAPPA * (tc - t)), remaining)
                t_new = np.where(h >= remaining, t_end, t + h)
                h_eff = t_new - t
                failed = ~done & (
                    (acc_count + rejected >= _MAX_STEPS) | (h_eff <= 4.0 * np.spacing(t))
                )
                x_new, f_new, k, err = _trial(
                    lambda xs, ts: rhs(xs, ts, *law), np.maximum, atol, rtol,
                    t, x, f, h_eff, t_new,
                )
                stages = np.array(k)
                failed |= ~done & ~np.isfinite(stages).all(axis=0)
                live = ~(done | failed)
                acc = live & (err <= 1.0)
                rej = live & ~acc

                # record the accepted steps before their lanes move on
                taken = np.flatnonzero(acc).tolist()
                rows = np.vstack([t[acc], h_eff[acc], x[acc], stages[:, acc]]).T.tobytes()
                for j, i in enumerate(taken):
                    records[i] += rows[_ROW_BYTES * j : _ROW_BYTES * (j + 1)]

                e = err[acc]
                factor = np.full(e.size, _MAX_FACTOR)
                moved = e != 0.0
                factor[moved] = (
                    _SAFETY * _map_floats(pow, e[moved], -0.14)
                    * _map_floats(pow, err_prev[acc][moved], 0.08)
                )
                factor = np.minimum(_MAX_FACTOR, np.maximum(_MIN_FACTOR, factor))
                converged = acc & (np.abs(x_new) <= eps_conv)
                lanes[_ERR, acc] = np.maximum(e, 1e-12)
                lanes[_H, acc] = h_eff[acc] * factor
                lanes[_T, acc] = t_new[acc]
                lanes[_X, acc] = x_new[acc]
                lanes[_F, acc] = f_new[acc]
                lanes[_ACC, acc] += 1.0

                h_rej = h_eff[rej] * np.maximum(
                    _MIN_FACTOR, _SAFETY * _map_floats(pow, err[rej], -0.2)
                )
                lanes[_H, rej] = h_rej
                lanes[_REJ, rej] += 1.0
                floor = 4.0 * np.spacing(np.maximum(t[rej], 0.01 * t_end[rej]))
                failed[rej] = h_rej <= floor

                finished = done | converged | failed
                if finished.any():
                    break
        out = []
        for i in np.flatnonzero(finished).tolist():
            if failed[i]:
                out.append((keys[i], None))
                continue
            a = np.frombuffer(records[i], dtype=float).reshape(-1, 10)
            out.append((keys[i], _Steps(
                a[:, 0], a[:, 1], a[:, 2], a[:, 3:], int(lanes[_REJ, i]),
                bool(converged[i]), lanes[_X, i].item(),
            )))
        kept = (~finished).tolist()
        keys = [key for key, keep in zip(keys, kept) if keep]
        records = [rec for rec, keep in zip(records, kept) if keep]
        lanes = lanes[:, ~finished]
        yield from out


def _eval_trajectory(traj: Trajectory, times: np.ndarray, x_start: np.ndarray) -> np.ndarray:
    """Dense-output evaluation at times within [0, t_end], in any order.

    ``x_start`` is the initial state, which holds at t = 0 when no step was
    taken.
    """
    n_seg = traj._seg_t0.size
    zero_from = traj.event_time if traj.event_time is not None else np.inf

    if n_seg == 0:
        # immediate convergence: the initial state holds only at t = 0
        out = np.zeros((times.size, traj.spec.dim))
        out[times == 0.0] = x_start
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
    return _eval_trajectory(traj, times, traj.states[0])


def settling_report(traj: Trajectory, p: Optional[BarrierParams] = None) -> SettlingReport:
    """Compare the measured settling instant against the analytic bound."""
    p = p if p is not None else traj.params
    if traj.spec.v is not None:
        v0 = traj.v_values[0].item()
    else:
        v0 = _maxnorm(traj.states[0])
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
