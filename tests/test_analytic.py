"""Closed forms against independent quadrature / root-finding / ODE oracles."""

import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest

from timebarrier import (
    BarrierParams,
    DivergentIntegralError,
    DomainError,
    SettlingBound,
    barrier_integral,
    exact_solution_scalar,
    exact_solution_scalar_array,
    settling_bound,
)

from conftest import (
    dop853_solution,
    oracle_settling,
    quad_barrier_integral,
    random_admissible,
)

TAU_DEFAULT = 0.8646647167633873  # 1 - exp(-2), crossing for (1, 2, 1, 0.5) from V0=1


def test_barrier_integral_frozen_values():
    p = BarrierParams(1, 2, 1, 0.5)  # m = 1
    assert barrier_integral(p, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    p2 = BarrierParams(1, 4, 1, 0.5)  # m = 2
    assert barrier_integral(p2, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert barrier_integral(p, 0.0) == 0.0
    assert barrier_integral(p2, 0.0) == 0.0
    # m = 40: the log-space form would take log(expm1(0)) at t = 0
    assert barrier_integral(BarrierParams(1, 80, 1, 0.5), 0.0) == 0.0


def test_barrier_integral_matches_quadrature():
    rng = np.random.default_rng(21)
    for _ in range(40):
        p = random_admissible(rng, beta_margin=(0.3, 3.0))
        t = rng.uniform(0.0, 0.999) * p.tc
        want = quad_barrier_integral(p, t)
        assert barrier_integral(p, t) == pytest.approx(want, rel=1e-8, abs=1e-12)


def test_barrier_integral_log_space_branch():
    p = BarrierParams(1.0, 80.0, 1.0, 0.5)  # m = 40
    want = quad_barrier_integral(p, 0.3)
    assert barrier_integral(p, 0.3) == pytest.approx(want, rel=1e-7)


def test_barrier_integral_log_space_branch_past_exp_40():
    # m = 50 at t = 0.9: arg = 49*ln(10) > 40, where expm1(arg) is taken as
    # arg + log1p(-exp(-arg)) in log space
    p = BarrierParams(1.0, 100.0, 1.0, 0.5)
    assert barrier_integral(p, 0.9) == pytest.approx((10.0**49 - 1.0) / 49.0, rel=1e-12)


def decimal_log1p(x):
    """ln(1 + x) to the context's digits, also where 1 + x rounds to 1 (the next term is x**3/3)."""
    return x - x * x / 2 if abs(x) < Decimal("1e-30") else (1 + x).ln()


def decimal_expm1(x):
    """exp(x) - 1 to the context's digits, also where exp(x) rounds to 1 (the next term is x**3/6)."""
    return x + x * x / 2 if abs(x) < Decimal("1e-30") else x.exp() - 1


def decimal_j(p, lam):
    """J = integral of lam(s)**(-m) over [0, t] = tc * (lam**(1-m) - 1) / (m-1), or
    -tc * ln(lam) at m = 1, to the context's digits."""
    tc, e = Decimal(p.tc), 1 - Decimal(p.m)
    return -tc * lam.ln() if e == 0 else tc * decimal_expm1(e * lam.ln()) / -e


def decimal_barrier_integral(p, t):
    """I(t) = tc**(-m) * J to 100 digits, from the float lam = 1 - fl(t/tc) that the
    closed form reads."""
    with localcontext() as ctx:
        ctx.prec = 100
        return Decimal(p.tc) ** -Decimal(p.m) * decimal_j(p, 1 - Decimal(t / p.tc))


@pytest.mark.parametrize(
    "tc, beta, alpha, t",
    [
        (1e-11, 60.0, 0.5, 1e-12),  # past the float range: was OverflowError
        (1e20, 60.0, 0.5, 1e20 * (1 - 1e-11)),  # was nan
        # a subnormal tc**(-m) factor cost the product form its digits
        (1.727261674504697e19, 57.84347913769606, 0.7098471884737656, 1.483002029292995e19),
        (1e300, 1.0, 0.5, 1e-24),  # t/tc underflows to 0: was 0.0
        (1e300, 80.0, 0.5, 1e-24),  # the same at m = 40: was ValueError
    ],
    ids=["overflow", "near_tc", "subnormal_factor", "tiny_t", "tiny_t_m_40"],
)
def test_barrier_integral_keeps_its_digits_to_the_float_range(tc, beta, alpha, t):
    p = BarrierParams(tc, beta, 1.0, alpha)
    got = barrier_integral(p, t)
    if t / tc == 0.0:  # lam = 1 in floats; I = t * tc**(-m) to within m*t/tc, far below a rounding
        with localcontext() as ctx:
            ctx.prec = 100
            want = Decimal(t) * Decimal(tc) ** -Decimal(p.m)
    else:
        want = decimal_barrier_integral(p, t)
    if want > Decimal(sys.float_info.max):
        assert got == math.inf
    elif want < Decimal(sys.float_info.min) / 2**52:  # below the smallest subnormal
        assert got == 0.0
    else:
        assert abs(Decimal(got) - want) <= Decimal("1e-12") * want


def test_barrier_integral_strictly_increasing():
    p = BarrierParams(1, 3, 1, 0.5)
    ts = np.linspace(0.0, 0.999, 200)
    values = [barrier_integral(p, t) for t in ts]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_barrier_integral_divergence_signal():
    p = BarrierParams(1, 2, 1, 0.5)
    with pytest.raises(DivergentIntegralError):
        barrier_integral(p, 1.0)
    with pytest.raises(DomainError):
        barrier_integral(p, -0.1)
    # finite limit below the critical exponent
    p_sub = BarrierParams(1, 0.5, 1, 0.5)  # m = 0.25
    assert barrier_integral(p_sub, 1.0) == pytest.approx(1.0 / 0.75, rel=1e-12)


def test_barrier_integral_divergence_witness():
    for beta in (2.0, 3.0, 4.0):  # m = 1, 1.5, 2
        p = BarrierParams(1.0, beta, 1.0, 0.5)
        assert barrier_integral(p, 1.0 - 1e-12) > 10.0


def test_settling_bound_frozen_default():
    sb = settling_bound(BarrierParams(1, 2, 1, 0.5), 1.0)
    assert sb.reaches_zero
    assert sb.tau_bound == pytest.approx(TAU_DEFAULT, abs=1e-15)


def test_settling_bound_zero_start():
    sb = settling_bound(BarrierParams(1, 2, 1, 0.5), 0.0)
    assert sb.tau_bound == 0.0
    assert sb.reaches_zero


def test_settling_bound_sub_exponent_threshold():
    # m = 0.25: crossing exists iff z0 = V0**0.5 < q(1-a)tc/(1-m) = 2/3
    p = BarrierParams(1, 0.5, 1, 0.5)
    above = (1.1 * 2.0 / 3.0) ** 2
    sb = settling_bound(p, above)
    assert not sb.reaches_zero
    assert sb.tau_bound == p.tc
    below = (0.9 * 2.0 / 3.0) ** 2
    sb = settling_bound(p, below)
    assert sb.reaches_zero
    want = oracle_settling(p, below)
    assert sb.tau_bound == pytest.approx(want, abs=1e-10)


def test_settling_bound_q_zero_never_reaches():
    sb = settling_bound(BarrierParams(1, 2, 0, 0.5), 1.0)
    assert not sb.reaches_zero
    assert sb.tau_bound == 1.0


def test_settling_bound_rejects_bad_v0():
    with pytest.raises(ValueError):
        settling_bound(BarrierParams(1, 2, 1, 0.5), math.nan)
    with pytest.raises(ValueError):
        settling_bound(BarrierParams(1, 2, 1, 0.5), -1.0)


@pytest.mark.parametrize("v0", [1e-40, 1e-20, 1e-6])
def test_settling_bound_keeps_its_digits_where_tau_is_small(v0):
    # m = 1: tau = -tc*expm1(-2*sqrt(v0)); tc - tc*exp(...) cancelled to 0.0 at 1e-40
    tau = settling_bound(BarrierParams(1, 2, 1, 0.5), v0).tau_bound
    assert tau == pytest.approx(-math.expm1(-2 * math.sqrt(v0)), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "t_start", [0.0, 0.25], ids=["settling_bound", "remaining_settling_time"]
)
def test_settling_bound_names_an_initial_value_past_the_float_range(t_start):
    # an int past the float range is not finite: the check's ValueError, not OverflowError
    with pytest.raises(ValueError, match="initial Lyapunov value must be finite"):
        settling_bound(BarrierParams(1, 2, 1, 0.5), 10**400, t_start)


def test_settling_bound_past_the_exp_range_reaches_zero():
    # log A = 709.78...: A is past the float range, so log1p(g) is taken as log g, and
    # lam(tau) = exp(-709.78...) puts the crossing at tc in floats
    sb = settling_bound(BarrierParams(1, 4, 1e-300, 0.5), 1.0215165681210286e16)
    assert sb.reaches_zero
    assert sb.tau_bound == 1.0


def test_settling_bound_takes_g_by_its_log_past_the_float_range():
    # A = 1e150 / 5e-301 is past the float range; the 60-digit zero is 0.9999730010536269,
    # where an overflowed g gave tc
    sb = settling_bound(BarrierParams(1.0, 200.0, 1e-300, 0.5), 1e300)
    assert sb == SettlingBound(0.9999730010536269, True)


ORACLES = pytest.mark.parametrize(
    "oracle",
    [exact_solution_scalar, lambda p, x0, t: exact_solution_scalar_array(p, x0, [t]).item()],
    ids=["scalar", "array"],
)


@ORACLES
def test_exact_solution_takes_q_j_by_its_log_past_exps_range(oracle):
    # arg = 706.3 is past exp's range, but q*(1-alpha)*J is far below z0 = 1e153:
    # the 60-digit value is 8.709809816217217e-303, where a J of inf gave 0
    x = oracle(BarrierParams(1.0, 2000.0, 1e-300, 0.49), 1e300, 0.5)
    assert x == pytest.approx(8.709809816217217e-303, rel=1e-12, abs=0.0)
    # arg = 700.5 at lam = 6.2e-7, where log1p(-t/tc) rounds t/tc first (ROADMAP item 32 (i)),
    # so only 1e-6 of the 60-digit 2.70247057904e-7
    x = oracle(BarrierParams(100.0, 50.5, 1e-300, 0.01), 1e307, 99.99993823706295)
    assert x == pytest.approx(2.70247057904e-7, rel=1e-6, abs=0.0)


def closed_form_draw(n):
    """n seeded points (p, x0, t, t_start) over the law's domain, with t and t_start
    at most tc/2. Every fourth is in the far range: m near 1000, q down to 1e-300, |x0|
    up to 1e300 and t near tc/2, where arg passes 700 and A the float range. Every
    eighth has m = 1 exactly."""
    rng = np.random.default_rng(32)
    points = []
    for i in range(n):
        tc, alpha = 10.0 ** rng.uniform(-6, 6), rng.uniform(0.01, 0.99)
        log_m, log_q, log_x0 = rng.uniform(-2, 3.1), rng.uniform(-300, 2), rng.uniform(-300, 300)
        t = tc * rng.uniform(0.0, 0.5)
        if i % 4 == 0:
            log_m, log_q, log_x0 = rng.uniform(2.9, 3.1), rng.uniform(-300, -200), rng.uniform(200, 300)
            t = tc * rng.uniform(0.4, 0.5)
        m, q, x0 = 10.0**log_m, 10.0**log_q, 10.0**log_x0
        if i % 8 == 1:
            alpha, m = float(rng.choice([0.5, 0.75, 0.875])), 1.0  # beta = 1/(1-alpha) exactly
        t_start = tc * rng.uniform(0.0, 0.5) if i % 2 else 0.0
        x0 *= float(rng.choice([-1.0, 1.0]))
        points.append((BarrierParams(tc, m / (1.0 - alpha), q, alpha), x0, t, t_start))
    return points


def decimal_exact_solution(p, x0, t):
    """x(t) and the bracket's condition z0/|bracket|, to the context's digits."""
    one_minus_a = 1 - Decimal(p.alpha)
    lam = 1 - Decimal(t) / Decimal(p.tc)
    z0 = Decimal(abs(x0)) ** one_minus_a
    bracket = z0 - Decimal(p.q) * one_minus_a * decimal_j(p, lam)
    condition = z0 / abs(bracket) if bracket else Decimal("Infinity")
    if bracket <= 0:
        return Decimal(0), condition
    return ((lam ** Decimal(p.m) * bracket) ** (1 / one_minus_a)).copy_sign(Decimal(x0)), condition


def decimal_settling_time(p, v, t_start):
    """The zero of the envelope restarted at (t_start, v), to the context's digits, or
    None where it never reaches zero (m < 1 past the finite-integral threshold)."""
    tc, m, one_minus_a = Decimal(p.tc), Decimal(p.m), 1 - Decimal(p.alpha)
    lam0 = 1 - Decimal(t_start) / tc
    a = Decimal(v) ** one_minus_a / (lam0 * Decimal(p.q) * one_minus_a * tc)
    if m == 1:
        u = a
    else:
        g = (m - 1) * a
        if g <= -1:
            return None
        u = decimal_log1p(g) / (m - 1)
    # lam(tau) = lam0 * exp(-u), so tau = t_start + tc*lam0*(1 - exp(-u)), without cancellation
    return Decimal(t_start) - tc * lam0 * decimal_expm1(-u)


CLOSED_FORM_DIGITS = 60
CLOSED_FORM_REL = Decimal("1e-12")
WELL_CONDITIONED = Decimal(1000)


def test_closed_forms_match_a_60_digit_evaluation():
    # x(t), I(t) = tc**(-m) * J(t) and tau against the same formulas in 60-digit decimal,
    # from the same float inputs, at 300 seeded points: every normal result within 1e-12
    # relative, a state past its crossing exactly 0, and no crossing where there is none.
    # Excluded: states whose bracket z0 - q*(1-alpha)*J cancels (z0/|bracket| > 1e3), where
    # the lost digits are the problem's and not the code's; and t, t_start > tc/2, where
    # log1p(-t/tc) rounds t/tc first and loses digits near tc (ROADMAP item 32 (i), open).
    # Over 3,000 points of the same draw the worst errors are 4.1e-13, 1.5e-13 and 9.3e-14.
    normal = Decimal(sys.float_info.min), Decimal(sys.float_info.max)
    faults = []
    with localcontext() as ctx:
        ctx.prec = CLOSED_FORM_DIGITS
        for p, x0, t, t_start in closed_form_draw(300):
            got = exact_solution_scalar(p, x0, t)
            assert exact_solution_scalar_array(p, x0, [t]).tobytes() == np.float64(got).tobytes()
            want, condition = decimal_exact_solution(p, x0, t)
            checked = condition <= WELL_CONDITIONED and not 0 < abs(want) < normal[0]
            if checked and abs(Decimal(got) - want) > CLOSED_FORM_REL * abs(want):  # 0 where want is
                faults.append(("x", p, x0, t, got, float(want)))
            want = Decimal(p.tc) ** -Decimal(p.m) * decimal_j(p, 1 - Decimal(t) / Decimal(p.tc))
            got = barrier_integral(p, t)
            if normal[0] <= want <= normal[1] and abs(Decimal(got) - want) > CLOSED_FORM_REL * want:
                faults.append(("I", p, t, got, float(want)))
            want = decimal_settling_time(p, abs(x0), t_start)
            got = settling_bound(p, abs(x0), t_start)
            if want is None:
                if got != SettlingBound(p.tc, False):
                    faults.append(("tau", p, abs(x0), t_start, got, None))
            elif abs(Decimal(got.tau_bound) - want) > CLOSED_FORM_REL * want or not got.reaches_zero:
                faults.append(("tau", p, abs(x0), t_start, got, float(want)))
    counts = {kind: sum(f[0] == kind for f in faults) for kind in ("x", "I", "tau")}
    firsts = [next(f for f in faults if f[0] == kind) for kind in counts if counts[kind]]
    assert not faults, f"faults {counts}, the first of each kind: {firsts}"


@pytest.mark.parametrize(
    "p, v",
    [
        (BarrierParams(1e-30, 2.0, 1e-300, 0.5), 1.0),
        (BarrierParams(2e-21, 2.0, 1e-300, 0.001), 1e-321),
        (BarrierParams(1e304, 2.0, 1e5, 0.001), 1e307),
    ],
    ids=["underflows_to_0", "subnormal", "past_the_float_range"],
)
def test_settling_bound_where_q_times_1_minus_alpha_times_tc_is_no_normal_float(p, v):
    # log(q*(1-alpha)*tc) is taken as log q + log(1-alpha) + log tc there: the
    # direct log raised a domain error at 0, lost digits below the normal range
    # and gave tau = 0 at inf
    got = settling_bound(p, v)
    with localcontext() as ctx:
        ctx.prec = CLOSED_FORM_DIGITS
        want = decimal_settling_time(p, v, 0.0)
        assert got.reaches_zero
        assert abs(Decimal(got.tau_bound) - want) <= CLOSED_FORM_REL * want


@ORACLES
def test_exact_solution_names_an_x0_past_the_float_range(oracle):
    with pytest.raises(ValueError, match="x0 must be finite"):
        oracle(BarrierParams(1, 2, 1, 0.5), 10**400, 0.5)


def test_settling_bound_matches_root_oracle():
    rng = np.random.default_rng(22)
    checked = 0
    for _ in range(40):
        p = random_admissible(rng)
        v0 = 10.0 ** rng.uniform(-3, 3)
        want = oracle_settling(p, v0)
        got = settling_bound(p, v0).tau_bound
        if want is None:
            assert got > p.tc * (1.0 - 1e-9)
            continue
        checked += 1
        # quadrature near the barrier limits the oracle's own accuracy
        assert got == pytest.approx(want, abs=5e-8 * p.tc)
    assert checked >= 20


def test_settling_bound_reached_for_admissible():
    rng = np.random.default_rng(23)
    for _ in range(200):
        p = random_admissible(rng)
        sb = settling_bound(p, 10.0 ** rng.uniform(-6, 6))
        assert sb.reaches_zero
        assert 0.0 <= sb.tau_bound <= p.tc


def test_exact_solution_frozen_values():
    assert exact_solution_scalar(BarrierParams(2, 3, 0, 0.5), 2.0, 1.0) == pytest.approx(
        0.25, rel=1e-14
    )
    assert exact_solution_scalar(BarrierParams(1, 2, 1, 0.5), 0.0, 0.7) == 0.0
    # t = 0.9 is past the crossing at ~0.8647, so the clamped form is zero
    assert exact_solution_scalar(BarrierParams(1, 2, 1, 0.5), 1.0, 0.9) == 0.0
    # q = 0 with J(t) = inf: q * J would be 0 * inf, NaN, and clamp the state to 0
    p = BarrierParams(1.0, 105.0, 0.0, 0.05)
    t = 1 - math.exp(-7.5)
    assert exact_solution_scalar(p, 1e300, t) == 9.842275132076989e-43
    assert exact_solution_scalar_array(p, 1e300, [t]).tolist() == [9.842275132076989e-43]


def test_exact_solution_identity_at_zero():
    rng = np.random.default_rng(24)
    for _ in range(100):
        p = random_admissible(rng)
        x0 = rng.uniform(-1e3, 1e3)
        assert exact_solution_scalar(p, x0, 0.0) == x0
    # x0 itself, its sign included
    assert math.copysign(1.0, exact_solution_scalar(BarrierParams(1, 2, 1, 0.5), -0.0, 0.0)) == -1.0


def test_exact_solution_domain_error():
    p = BarrierParams(1, 2, 1, 0.5)
    with pytest.raises(DomainError):
        exact_solution_scalar(p, 1.0, 1.0)
    with pytest.raises(DomainError):
        exact_solution_scalar(p, 1.0, -0.01)


def test_exact_solution_monotone_decay():
    rng = np.random.default_rng(25)
    for _ in range(10):
        p = random_admissible(rng)
        x0 = 10.0 ** rng.uniform(-2, 2)
        ts = np.linspace(0.0, p.tc * (1 - 1e-9), 1000)
        values = np.array([exact_solution_scalar(p, x0, t) for t in ts])
        assert np.all(np.diff(np.abs(values)) <= 0.0)


def test_exact_solution_matches_ode_oracle():
    rng = np.random.default_rng(26)
    for _ in range(12):
        p = random_admissible(rng, alpha_range=(0.2, 0.8))
        x0 = rng.uniform(0.5, 100.0) * rng.choice([-1.0, 1.0])
        tau = settling_bound(p, abs(x0)).tau_bound
        times = np.linspace(0.0, 0.8 * min(tau, p.tc), 20)[1:]
        got = np.array([exact_solution_scalar(p, x0, t) for t in times])
        want = dop853_solution(p, x0, times)
        assert np.max(np.abs(got - want)) <= 1e-8 * max(1.0, abs(x0))


def test_settling_bound_is_first_zero_of_solution():
    rng = np.random.default_rng(27)
    for _ in range(10):
        p = random_admissible(rng)
        x0 = 10.0 ** rng.uniform(-2, 2)
        sb = settling_bound(p, x0)
        assert sb.reaches_zero
        lo, hi = 0.0, p.tc * (1.0 - 1e-15)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if exact_solution_scalar(p, x0, mid) == 0.0:
                hi = mid
            else:
                lo = mid
        assert abs(hi - sb.tau_bound) <= 1e-10 * p.tc


def test_remaining_settling_time_restart_consistency():
    rng = np.random.default_rng(28)
    for _ in range(10):
        p = random_admissible(rng)
        x0 = 10.0 ** rng.uniform(-2, 2)
        tau = settling_bound(p, x0).tau_bound
        t_mid = 0.5 * tau
        v_mid = abs(exact_solution_scalar(p, x0, t_mid))
        tau_again = settling_bound(p, v_mid, t_mid).tau_bound
        assert tau_again == pytest.approx(tau, abs=1e-10 * p.tc)


def test_import_leaves_numpy_polynomial_unloaded():
    # the closed forms need no quadrature rule, so nothing loads numpy.polynomial
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, timebarrier; assert 'numpy.polynomial' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
