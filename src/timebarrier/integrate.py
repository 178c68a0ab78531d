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
  remaining time of the reference law, capped at tc - delta_end. At dim >= 2,
  after each accepted step, a coordinate with |x_i| <= eps_conv whose field
  points toward zero from both sides, f_i(x_i = +eps_conv) <= 0 <=
  f_i(x_i = -eps_conv), is held at exactly zero, with a zero derivative and
  outside the error norm, until that test fails (``_live``): the sliding-mode
  (Filippov) solution on the plane x_i = 0. With an exact sign() a settled
  coordinate would otherwise flip around zero (chattering) and shrink every
  step until the last coordinate settles.

Every run, a cell of a sweep included, goes through simulate() and one
stepping loop (``_step``). The DOPRI5(4) trial step has one body
(``_trial``), and every operation in it is elementwise, so it runs on
Python floats and on arrays over the coordinates alike.

The trial contract is one rule for every rhs. A run has one trial, which
checks no stage on its own; only its callable depends on the rhs. A
plain-float kernel (``core._Pointwise``, the rhs of every built-in law,
also where a user spec reuses it) is called bare, on floats: at dim 1
directly, at dim >= 2 for each coordinate with the common step size, where
a coordinate held at zero skips its trial. Any other rhs is called through
``_coerced_rhs``, which reads each value by ``core._value`` as ``_evaluate``
does, on a one-element array at dim 1 and on arrays at dim >= 2.
The error norm is finite only when the seven stages and the new state all
are (``_trial`` adds 0.0 times k2, the one stage with zero weight in the
error, times the new state). A trial that raises, or whose error norm is
not finite, is re-run on arrays through ``_checked_rhs`` (``_coerced_rhs``
plus a finiteness check) by ``_raise_fault``, at every dim. It raises the
first non-finite stage's blow-up, or the rhs's own error again, or, when
every stage is finite, the blow-up of the new state at the step's start.
When it finds no fault (the error overflowed), the step is rejected, and a
trial that raised raises its own error. So a passing trial calls the rhs
once per stage and a failing one at most twice, and every rhs must be a
pure function of (x, t). At dim >= 2 the error norm is the RMS of the live
coordinates' scaled errors (``_rms``, one function), so every callable
takes the same steps to the bit. All share the controller, the clamp, the
step budget, the stall checks, event refinement and the segment record.
Per trial and per bisection step, these compare floats where the builtins
min() and max() would be called, in the builtins' operand order, so every
value keeps its bits: on CPython 3.11 a builtin call costs 200-300 ns, ~30
ns compared out, and a float trial ~6 us. Each accepted step keeps its
seven stage derivatives, and the dense-output coefficients of all steps
come from one contraction after the loop. Sampling gathers each time's
segment and evaluates the quartic elementwise, so the value at a time does
not depend on which other times share the call.

The record of a run is built once, after the loop (``_record``): the dense
output (``_Dense``, which ``resample`` also reads), the output times and
states, V and W at each time (V in one block call where the spec's V is a
built-in block form), then the frozen :class:`Trajectory`. The certificate,
the closed-form oracle and the CSV writer all read its arrays; dV/dt is
evaluated by the certificate alone, at the samples it checks.

Each simulate() call owns its mutable state; a returned trajectory is
frozen and its arrays are read-only, so it is safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, repeat
from typing import NamedTuple, Optional

import numpy as np

from .analytic import remaining_settling_time, settling_bound
from .core import (
    BarrierParams,
    BlowUpError,
    DynamicsSpec,
    NumericPolicy,
    StallError,
    _check_law,
    _evaluate,
    _float_array,
    _Pointwise,
    _value,
    _x0_error,
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

# The Shampine quartic interpolant of the Dormand-Prince 5(4) pair (the
# pair's own tableau is written out in _trial).
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


class TrajectorySample(NamedTuple):
    """One recorded point: its time and state.

    A view of one row of a :class:`Trajectory`'s arrays: ``x`` is the
    read-only row of ``states``. A named tuple, so its fields cannot be
    assigned.
    """

    t: float
    x: np.ndarray


@dataclass(frozen=True)
class SettlingReport:
    """Measured settling estimate versus :func:`settling_bound` from the run's
    V at t = 0, or from max_i |x_i| where the spec has no V.

    ``deadline_pass`` is ``converged_at is not None``: :func:`simulate`
    caps ``converged_at`` at ``t_end``, and leaves it ``None`` for a run
    with no crossing or with one whose closed form never reaches zero.
    """

    converged_at: Optional[float]
    tau_bound: float
    reaches_zero: bool
    deadline_pass: bool


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Integration record with dense-output support, built once by
    :func:`simulate`: a frozen record whose arrays are read-only. Runs
    compare and hash by identity: two runs are never equal, however alike.

    ``states`` has one row per time of ``times``; ``v_values`` and
    ``w_values`` are NaN where the spec has no V.
    ``event_time`` is the refined instant where max|x_i| crossed eps_conv;
    ``converged_at`` adds the closed-form remaining settling time of the
    reference law from that point, capped at ``t_end = tc - delta_end``,
    and is ``None`` when that closed form never reaches zero (q = 0, or
    m < 1 past its finite-integral threshold). All recorded states past
    ``event_time`` are exactly zero (clamped).
    """

    spec: DynamicsSpec
    params: BarrierParams
    policy: NumericPolicy
    times: np.ndarray
    states: np.ndarray
    v_values: np.ndarray
    w_values: np.ndarray
    converged_at: Optional[float]
    event_time: Optional[float]
    terminal_norm: float
    step_count: int
    rejected_steps: int
    t_end: float
    _dense: _Dense

    @cached_property
    def samples(self) -> list[TrajectorySample]:
        """The record as one :class:`TrajectorySample` ``(t, x)`` per time,
        built on first access."""
        # tuple.__new__ over the rows in one C-level map: no Python call per row
        rows = zip(self.times.tolist(), self.states)
        return list(map(tuple.__new__, repeat(TrajectorySample), rows))


def _maxabs(values: list) -> float:
    return max(map(abs, values))


def _rms(values: list) -> float:
    """RMS of a list of floats: the initial step's norms, and the error norm
    of every run of dim >= 2 on whichever path it steps.

    The mean of the squares is a running mean, so n equal values give the
    RMS of one of them exactly (a run from ``[x0, x0, x0]`` takes the steps
    of the scalar run from ``x0``), and one value v gives sqrt(v*v). A
    square past the float range gives inf.
    """
    mean = 0.0
    for n, v in enumerate(values, 1):
        square = v * v
        if square == math.inf:
            return math.inf
        mean += (square - mean) / n
    return math.sqrt(mean)


def _coerced_rhs(spec: DynamicsSpec, x: np.ndarray, t: float) -> np.ndarray:
    """``spec.rhs(x, t)`` through :func:`~timebarrier.core._value`, the check ``_evaluate`` makes."""
    return _value(spec, "rhs", spec.rhs(x, t), x.shape)


def _checked_rhs(spec: DynamicsSpec, x: np.ndarray, t: float) -> np.ndarray:
    """:func:`_coerced_rhs`; a non-finite value raises :class:`BlowUpError` at ``t``, ``x``."""
    f = _coerced_rhs(spec, x, t)
    if not np.isfinite(f).all():
        raise BlowUpError(
            f"dynamics blow-up: non-finite derivative at t={t!r}, x={x!r}", t, x
        )
    return f


def _initial_step(spec, x0, f0, policy, limit):
    scale = policy.abs_tol + policy.rel_tol * np.abs(x0)
    d0 = _rms((x0 / scale).tolist())
    d1 = _rms((f0 / scale).tolist())
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
    d2 = _rms(((f1 - f0) / scale).tolist()) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, limit)


def _larger(a: float, b: float) -> float:
    """``max(a, b)`` with its bits (``a`` unless ``b > a``), written out: a
    builtin min/max call costs 200-300 ns on CPython 3.11, ~30 ns compared
    out, and a float trial of ~6 us made five of them."""
    return b if b > a else a


def _trial(rhs, larger, atol, rtol, t, x, f, h, t_new):
    """DOPRI5(4) trial step, elementwise.

    ``x, f`` are Python floats (one-dimensional run or one coordinate of a
    pointwise rhs, ``larger=_larger``) or arrays over the coordinates of one run
    (``larger=np.maximum``); ``t, h, t_new`` are floats. Every operation is
    elementwise IEEE arithmetic, so a coordinate gets the bits of the float
    step. Returns (x_new, f_new, stage derivatives, scaled error): the error
    of each element over its tolerance, which is the RMS error norm of a
    one-dimensional run. The Dormand-Prince coefficients are written as
    fractions, which the compiler folds into constants; the terms with a
    zero weight (k2 in the solution and the error) are left out.
    """
    k1 = f
    k2 = rhs(x + h * (1 / 5 * k1), t + 1 / 5 * h)
    k3 = rhs(x + h * (3 / 40 * k1 + 9 / 40 * k2), t + 3 / 10 * h)
    k4 = rhs(x + h * (44 / 45 * k1 + -56 / 15 * k2 + 32 / 9 * k3), t + 4 / 5 * h)
    k5 = rhs(x + h * (19372 / 6561 * k1 + -25360 / 2187 * k2 + 64448 / 6561 * k3
                      + -212 / 729 * k4), t + 8 / 9 * h)
    k6 = rhs(x + h * (9017 / 3168 * k1 + -355 / 33 * k2 + 46732 / 5247 * k3 + 49 / 176 * k4
                      + -5103 / 18656 * k5), t + h)
    x_new = x + h * (35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4 + -2187 / 6784 * k5
                     + 11 / 84 * k6)
    k7 = rhs(x_new, t_new)
    err = h * (71 / 57600 * k1 + -71 / 16695 * k3 + 71 / 1920 * k4 + -17253 / 339200 * k5
               + 22 / 525 * k6 + -1 / 40 * k7)
    # k2 has zero weight in x_new and err, and a finite err over the inf
    # scale of an inf x_new reads 0: 0.0 * k2 * x_new is +-0.0 when both
    # are finite (no bit moves) and NaN otherwise, so the error norm is
    # finite only when all seven stages and the new state are
    scaled = abs(err) / (atol + rtol * larger(abs(x), abs(x_new))) + 0.0 * k2 * x_new
    return x_new, k7, (k1, k2, k3, k4, k5, k6, k7), scaled


# the stage derivatives of a coordinate held at zero
_HELD = (0.0,) * 7


def _live(probe, x, eps, t):
    """The hold's verdict (module docstring) on the list ``x`` at the end of an accepted
    step at ``t``, False for each coordinate to hold, by ``probe(x, i, xi, t)``: f_i at
    ``x`` with x_i replaced by ``xi``. A value that is not finite is not toward zero."""
    return [
        abs(xi) > eps
        or not -math.inf < probe(x, i, eps, t) <= 0.0 <= probe(x, i, -eps, t) < math.inf
        for i, xi in enumerate(x)
    ]


def _coordinate_trial(trial, live, t, x, f, h, t_new):
    """The kernel's trial of a run of dim >= 2: the float ``trial`` of each live
    coordinate of ``x, f`` (lists of floats), all with the common step, with
    the kernel called bare. A held coordinate skips its trial:
    its state and stages stay exactly zero. Returns (x_new, f_new, stage
    derivatives, each coordinate's seven one after another, error norm).
    """
    xs, fs, ks, errs = [], [], [], []
    for xi, fi, on in zip(x, f, live):
        if on:
            xi, fi, ki, ei = trial(t, xi, fi, h, t_new)
            errs.append(ei)
        else:
            ki = _HELD
        xs.append(xi)
        fs.append(fi)
        ks.append(ki)
    return xs, fs, sum(ks, ()), _rms(errs)


def _array_trial(rhs, atol, rtol, live, t, x, f, h, t_new):
    """:func:`_trial` on arrays over all coordinates of ``x, f`` (lists of
    floats or arrays), through ``rhs``: :func:`_coerced_rhs` in the trial of
    a run of dim >= 2 whose rhs is not a kernel, :func:`_checked_rhs` in
    the re-run of a failing trial. Returns what :func:`_coordinate_trial`
    returns; the error norm is of the ``live`` coordinates.
    """
    if not all(live):  # a held coordinate's stages are zero, as in the kernel's trial
        held, unheld = np.logical_not(live), rhs
        rhs = lambda x, t: np.where(held, 0.0, unheld(x, t))
    x_new, f_new, k, err = _trial(
        rhs, np.maximum, atol, rtol, t, np.array(x), np.array(f), h, t_new
    )
    errs = [e for e, on in zip(err.tolist(), live) if on]
    return x_new.tolist(), f_new.tolist(), np.ravel(k, order="F").tolist(), _rms(errs)


def _raise_fault(checked, t, x, f, h, t_new):
    """Raise the failure of a failing trial, named by its re-run ``checked``
    (:func:`_array_trial` over :func:`_checked_rhs`) as the trial contract
    of the module docstring says; return when the re-run finds none."""
    x = np.atleast_1d(x)
    x_new, _, _, err_norm = checked(t, x, np.atleast_1d(f), h, t_new)
    if err_norm != err_norm:
        raise BlowUpError(
            f"dynamics blow-up: non-finite state {np.atleast_1d(x_new)!r} at t={t_new!r}, "
            f"stepping from t={t!r}, x={x!r}", t, x
        )


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
        largest = None  # max() over the coordinates, compared out
        for xi, ci in rows:
            v = abs(_dense_poly(xi, h, ci, theta))
            largest = v if largest is None or v > largest else largest
        return largest

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if norm(mid) <= eps_conv:
            hi = mid
        else:
            lo = mid
    return hi, norm(hi)


class _Dense(NamedTuple):
    """The dense output of one run, and the one way to read it.

    Per accepted step: its start time ``t0``, length ``h``, start state
    ``x0`` (one row) and (dim, 4) quartic coefficients ``coef``. ``x_init``
    is the initial state, which holds alone at t = 0 when no step was taken;
    ``x_end`` is the stepper's end state, used at the end of the last step;
    every state past ``zero_from`` (the event time, or inf) is zero.
    """

    t0: np.ndarray
    h: np.ndarray
    x0: np.ndarray
    coef: np.ndarray
    x_init: np.ndarray
    x_end: np.ndarray
    zero_from: float

    def __call__(self, times: np.ndarray) -> np.ndarray:
        """The states at times within [0, t_end], in any order."""
        if self.t0.size == 0:
            # immediate convergence: the initial state holds only at t = 0
            out = np.zeros((times.size, self.x_init.size))
            out[times == 0.0] = self.x_init
            return out
        # in [0, n_seg - 1] for every time in [0, t_end]: the first step starts at 0
        k = np.searchsorted(self.t0, times, side="right") - 1
        h = self.h[k]
        theta = (times - self.t0[k]) / h
        out = _dense_poly(self.x0[k], h[:, None], self.coef[k].transpose(2, 0, 1), theta[:, None])
        t_last = self.t0[-1] + self.h[-1]
        if self.zero_from >= t_last:
            out[times == t_last] = self.x_end
        out[times > self.zero_from] = 0.0
        return out


def _prepare(spec, x0, p, policy):
    """simulate()'s argument checks: (policy, x0 array, tc, t_end)."""
    _check_law(p)
    policy = policy if policy is not None else NumericPolicy()
    x0 = np.atleast_1d(_float_array(x0)).copy()  # an int past the float range is inf
    if x0.shape != (spec.dim,):
        raise ValueError(f"x0 shape {x0.shape} does not match dim={spec.dim}")
    if not np.all(np.isfinite(x0)):
        _x0_error(x0)
    tc = p.tc
    if spec.tc is not None and spec.tc < tc:
        raise ValueError(
            f"spec domain ends at {spec.tc!r}, before the deadline {tc!r}"
        )
    return policy, x0, tc, tc - policy.resolve_delta_end(tc)


def simulate(
    spec: DynamicsSpec,
    x0,
    p: BarrierParams,
    policy: Optional[NumericPolicy] = None,
) -> Trajectory:
    """Integrate ``spec`` from ``x0`` on [0, tc - delta_end].

    A ``p`` outside the law's domain (see :class:`BarrierParams`) raises
    ``ValueError`` before the first step, whatever the spec. Raises
    :class:`StallError` on step-size underflow before the deadline or
    when the tolerances are too small to scale the initial state, and
    :class:`BlowUpError` when the dynamics return a non-finite derivative.
    """
    policy, x0, tc, t_end = _prepare(spec, x0, p, policy)
    return _record(spec, x0, p, policy, t_end, *_step(spec, x0, tc, t_end, policy))


def _step(spec, x0, tc, t_end, policy):
    """The stepping loop of one run: (steps, rejected, converged, x_last).

    ``steps`` has one ``(t0, h, x0, stages)`` entry per accepted step: its
    start time, length, start state and the seven stage derivatives of each
    coordinate, one coordinate after another. ``x_last`` is the state the
    run ended in when it did not converge. A run whose initial state is
    already within eps_conv has converged with no step.

    The run's one trial follows the trial contract of the module docstring:
    :func:`_trial` on floats at dim 1, and at dim >= 2 :func:`_coordinate_trial`
    over a kernel or :func:`_array_trial`, both on the state as a list of
    floats. ``live`` drops each coordinate that the hold (:func:`_live`, which
    probes the bare kernel or :func:`_coerced_rhs`) holds at zero.
    """
    eps_conv = policy.eps_conv
    rtol, atol = policy.rel_tol, policy.abs_tol
    steps = []
    rejected = 0
    if _maxabs(x0.tolist()) <= eps_conv:
        return steps, 0, True, x0
    converged = False
    # overflow inside a trial step is handled by rejection or the blow-up
    # check, not by floating-point warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t = 0.0
        f0 = _checked_rhs(spec, x0, 0.0)
        h_prop = _initial_step(spec, x0, f0, policy, min(_KAPPA * tc, t_end))
        # the one trial of the module docstring's trial contract
        kernel = spec.rhs.kernel if isinstance(spec.rhs, _Pointwise) else None
        live = [True] * spec.dim  # updated in place by the hold
        if spec.dim == 1:
            norm = abs
            x, f = x0.item(), f0.item()
            if kernel is None:  # the array contract on floats
                kernel = lambda xi, ti: _coerced_rhs(spec, np.array([xi]), ti).item()
            trial = partial(_trial, kernel, _larger, atol, rtol)
            probe = None  # no hold
        else:
            norm = _maxabs
            x, f = x0.tolist(), f0.tolist()
            coerced = partial(_coerced_rhs, spec)
            trial = partial(_array_trial, coerced, atol, rtol, live)
            probe = lambda x, i, xi, t: coerced(np.array(x[:i] + [xi] + x[i + 1:]), t)[i]
            if kernel is not None:
                trial = partial(_coordinate_trial, partial(_trial, kernel, _larger, atol, rtol), live)
                probe = lambda x, i, xi, t: kernel(xi, t)
        checked = partial(_array_trial, partial(_checked_rhs, spec), atol, rtol, live)
        err_prev = 1e-4

        end_guard = 8.0 * math.ulp(t_end)
        while True:
            remaining = t_end - t
            if remaining <= end_guard:
                break
            if len(steps) + rejected >= _MAX_STEPS:
                raise StallError(
                    f"step budget exhausted at t={t!r} without convergence",
                    t, x,
                )
            h = _KAPPA * (tc - t)  # min(h_prop, this), compared out
            h = h if h < h_prop else h_prop
            t_new = t_end if h >= remaining else t + h
            h_eff = t_new - t
            if h_eff <= 4.0 * math.ulp(t):
                raise StallError(
                    f"step size underflow (stall) at t={t!r}", t, x
                )

            try:
                x_new, f_new, k, err_norm = trial(t, x, f, h_eff, t_new)
            except Exception:
                # the rhs may have raised on a non-finite stage fed on to it
                _raise_fault(checked, t, x, f, h_eff, t_new)
                raise
            if not math.isfinite(err_norm):
                _raise_fault(checked, t, x, f, h_eff, t_new)  # returns on an overflowed error

            if err_norm <= 1.0:
                steps.append((t, h_eff, x, k))
                factor = _MAX_FACTOR
                if err_norm != 0.0:  # clamped as min(_MAX_FACTOR, max(_MIN_FACTOR, factor))
                    factor = _SAFETY * err_norm**-0.14 * err_prev**0.08
                    factor = factor if factor > _MIN_FACTOR else _MIN_FACTOR
                    factor = factor if factor < _MAX_FACTOR else _MAX_FACTOR
                err_prev = 1e-12 if 1e-12 > err_norm else err_norm
                h_prop = h_eff * factor
                t = t_new
                if norm(x_new) <= eps_conv:
                    converged = True
                    break
                if probe is not None:
                    live[:] = _live(probe, x_new, eps_conv, t)
                    if not all(live):
                        x_new = [xi if on else 0.0 for xi, on in zip(x_new, live)]
                        f_new = [fi if on else 0.0 for fi, on in zip(f_new, live)]
                x = x_new
                f = f_new
            else:
                rejected += 1
                shrink = _SAFETY * err_norm**-0.2
                h_prop = h_eff * (shrink if shrink > _MIN_FACTOR else _MIN_FACTOR)
                if h_prop <= 4.0 * math.ulp(_larger(t, 0.01 * t_end)):
                    raise StallError(
                        f"step size underflow (stall) at t={t!r}", t, x
                    )
    return steps, rejected, converged, x


def _record(spec, x0, p, policy, t_end, steps, rejected, converged, x_last) -> Trajectory:
    """The one post-loop record builder: the dense output, the event, the
    samples and V/W, then the :class:`Trajectory`, constructed once.
    Its arguments past ``t_end`` are what :func:`_step` returns."""
    dim = spec.dim
    n_seg = len(steps)
    seg_t0, seg_h, seg_x0, stages = zip(*steps) if steps else ((),) * 4
    seg_t0 = np.array(seg_t0, dtype=float)
    seg_h = np.array(seg_h, dtype=float)
    seg_x0 = np.array(seg_x0, dtype=float).reshape(n_seg, dim)
    # one contraction for the quartic coefficients of every step: (n, dim, 4)
    flat = np.fromiter(chain.from_iterable(stages), float, n_seg * dim * 7)
    coef = flat.reshape(n_seg, dim, 7) @ _P

    event_time = converged_at = None
    if converged:
        x_end = np.zeros_like(x0)
        if n_seg:
            theta, v_event = _refine_event(seg_x0[-1], seg_h[-1].item(), coef[-1], policy.eps_conv)
            event_time = seg_t0[-1].item() + theta * seg_h[-1].item()
        else:
            event_time, v_event = 0.0, _maxabs(x0.tolist())
        # a crossing whose closed form never reaches zero is not convergence
        rem = remaining_settling_time(p, v_event, event_time)
        if rem.reaches_zero:
            converged_at = min(rem.tau_bound, t_end)
    else:
        x_end = np.atleast_1d(np.asarray(x_last, dtype=float))
    dense = _Dense(
        seg_t0, seg_h, seg_x0, coef, x0, x_end, np.inf if event_time is None else event_time
    )

    # linspace holds both ends exactly, and seg_t0 starts at 0
    grid = [np.linspace(0.0, t_end, _OUTPUT_POINTS), seg_t0]
    if event_time is not None:
        grid.append(np.array([event_time]))
    # np.unique's result, without the numpy.ma import it makes in numpy 2.x:
    # the times are finite and every zero among them is +0.0
    times = np.sort(np.concatenate(grid))
    times = times[np.concatenate(([True], times[1:] != times[:-1]))]
    states = dense(times)
    v = w = np.full(times.size, np.nan)  # V and W without a V
    if spec.v is not None:
        v = _evaluate(spec, "v", states, times)
        w = w_transform_array(v, times, p)
    for values in (times, states, v, w, seg_t0, seg_h, seg_x0, coef, x0, x_end):
        values.flags.writeable = False
    return Trajectory(
        spec=spec,
        params=p,
        policy=policy,
        times=times,
        states=states,
        v_values=v,
        w_values=w,
        converged_at=converged_at,
        event_time=event_time,
        terminal_norm=_maxabs(states[-1].tolist()),
        step_count=n_seg,
        rejected_steps=rejected,
        t_end=t_end,
        _dense=dense,
    )


def resample(traj: Trajectory, times) -> np.ndarray:
    """Dense-output states at the requested times, in any order.

    Uses the same interpolation path as the recorded samples, so evaluating at
    a recorded sample time reproduces the stored value bit for bit; past the
    convergence event the result is exactly zero. No times give a (0, dim)
    block. Every time must lie in [0, t_end], the last sample time; one that
    does not, NaN and +-inf included, raises ``ValueError``.
    """
    times = np.atleast_1d(_float_array(times))
    if not ((0.0 <= times) & (times <= traj.t_end)).all():
        raise ValueError(f"times must be finite and within [0, {traj.t_end!r}], got {times!r}")
    return traj._dense(times)


def _own_params(traj: Trajectory, p: Optional[BarrierParams]) -> BarrierParams:
    """The tuple ``traj`` was run with; a ``p`` other than it raises ``ValueError``."""
    if p is not None and p != traj.params:
        raise ValueError(f"{p!r} is not the trajectory's own {traj.params!r}")
    return traj.params


def settling_report(traj: Trajectory, p: Optional[BarrierParams] = None) -> SettlingReport:
    """Compare the measured settling instant against the analytic bound of
    the run's own tuple, ``traj.params``; another ``p`` raises ``ValueError``."""
    p = _own_params(traj, p)
    if traj.spec.v is not None:
        v0 = traj.v_values[0].item()
    else:
        v0 = _maxabs(traj.states[0].tolist())
    sb = settling_bound(p, v0)
    return SettlingReport(
        converged_at=traj.converged_at,
        tau_bound=sb.tau_bound,
        reaches_zero=sb.reaches_zero,
        deadline_pass=traj.converged_at is not None,
    )
