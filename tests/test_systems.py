"""Built-in dynamics constructors: values, symmetries, and Lyapunov data."""

import math
import struct
import warnings

import numpy as np
import pytest

from timebarrier import BarrierParams, DomainError
from timebarrier.systems import (
    AutonomousLaw,
    make_autonomous_power_law,
    make_time_barrier_componentwise,
    make_time_barrier_scalar,
)


@pytest.fixture
def scalar_spec(default_params, default_policy):
    return make_time_barrier_scalar(default_params, default_policy)


def test_scalar_rhs_values(scalar_spec):
    assert scalar_spec.rhs(np.array([1.0]), 0.0)[0] == -3.0
    assert scalar_spec.rhs(np.array([0.0]), 0.5)[0] == 0.0
    assert scalar_spec.rhs(np.array([-1.0]), 0.0)[0] == 3.0


def test_scalar_rhs_domain_error(scalar_spec):
    with pytest.raises(DomainError):
        scalar_spec.rhs(np.array([1.0]), 1.0)
    with pytest.raises(DomainError):
        scalar_spec.rhs(np.array([1.0]), 1.5)
    with pytest.raises(DomainError):
        scalar_spec.vdot(np.array([1.0]), 1.0)


def test_scalar_rhs_odd_symmetry(scalar_spec):
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = np.array([rng.uniform(-1e3, 1e3)])
        t = rng.uniform(0.0, 0.999)
        assert scalar_spec.rhs(-x, t)[0] == -scalar_spec.rhs(x, t)[0]


def test_scalar_rhs_magnitude_grows_in_time(scalar_spec):
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = np.array([rng.uniform(0.01, 100.0) * rng.choice([-1.0, 1.0])])
        ts = np.sort(rng.uniform(0.0, 0.999, 8))
        mags = [abs(scalar_spec.rhs(x, t)[0]) for t in ts]
        assert all(b > a for a, b in zip(mags, mags[1:]))


def test_scalar_vdot_matches_flow_finite_difference(default_params, default_policy):
    spec = make_time_barrier_scalar(default_params, default_policy)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = np.array([rng.uniform(0.01, 10.0) * rng.choice([-1.0, 1.0])])
        t = rng.uniform(0.05, 0.9)
        h = 1e-7 * max(abs(x[0]), 1.0)
        f = spec.rhs(x, t)
        v_plus = spec.v(x + h * f, t + h)
        v_minus = spec.v(x - h * f, t - h)
        fd = (v_plus - v_minus) / (2 * h)
        assert spec.vdot(x, t) == pytest.approx(fd, rel=1e-4)


def test_componentwise_values(default_params, default_policy):
    spec = make_time_barrier_componentwise(default_params, 2, default_policy)
    np.testing.assert_allclose(
        spec.rhs(np.array([1.0, 0.0]), 0.0), [-3.0, 0.0], rtol=0, atol=0
    )
    np.testing.assert_array_equal(spec.rhs(np.zeros(2), 0.3), np.zeros(2))
    spec3 = make_time_barrier_componentwise(default_params, 3, default_policy)
    np.testing.assert_allclose(
        spec3.rhs(np.ones(3), 0.0), [-3.0, -3.0, -3.0], rtol=0, atol=0
    )


def test_componentwise_max_norm_lyapunov(default_params, default_policy):
    spec = make_time_barrier_componentwise(default_params, 3, default_policy)
    x = np.array([0.5, -2.0, 1.0])
    assert spec.v(x, 0.1) == 2.0
    # derivative of the max coordinate follows the scalar identity
    assert spec.vdot(x, 0.0) == -2 * 2.0 / 1.0 - 1.0 * 2.0**0.5


def test_power_law_values():
    law = make_autonomous_power_law(1.0, 0.5)
    assert isinstance(law, AutonomousLaw)
    assert law.settling_time(1.0) == 2.0


def test_power_law_rejects_bad_params():
    with pytest.raises(ValueError):
        make_autonomous_power_law(0.0, 0.5)
    with pytest.raises(ValueError):
        make_autonomous_power_law(1.0, 1.0)


@pytest.mark.parametrize("bias", [0.0, 0.5])
@pytest.mark.parametrize(
    "p", [BarrierParams(1.0, 2.0, 1.0, 0.5), BarrierParams(2.5, 0.0, 3.0, 0.25)]
)
def test_kernel_bits_match_the_one_line_law(p, bias):
    def one_line(x, t):
        ax = abs(x)
        sgn = float((x > 0.0) - (x < 0.0))
        return -p.beta * x / (p.tc - t) - p.q * ax**p.alpha * sgn + bias

    def bits(value):
        return struct.pack("<d", value)

    kernel = make_time_barrier_scalar(p, bias=bias).rhs.kernel
    magnitudes = (0.0, 5e-324, 1e-300, 1e-8, 1.0, 1e300)
    xs = [s * m for m in magnitudes for s in (1.0, -1.0)] + [math.nan]
    for t in (0.0, 0.3 * p.tc, math.nextafter(p.tc, 0.0)):
        for x in xs:
            assert bits(kernel(x, t)) == bits(one_line(x, t)), (x, t)
    with pytest.raises(DomainError):
        kernel(1.0, p.tc)


# unbiased only: a biased law states no dV/dt
@pytest.mark.parametrize("dim, bias", [(1, 0.0), (2, 0.0), (3, 0.0)])
@pytest.mark.parametrize(
    "p", [BarrierParams(1.0, 2.0, 1.0, 0.5), BarrierParams(2.5, 3.0, 0.7, 0.25)]
)
def test_vdot_block_bits_match_the_plain_float_bound(p, dim, bias):
    # dV/dt written out on floats: the bound at V = max|x_i|, and +0.0 where V = 0
    def plain(x, t):
        v = abs(max(x, key=abs))
        if v == 0.0:
            return 0.0
        return -p.beta * v / (p.tc - t) - p.q * v**p.alpha

    def bits(value):
        return struct.pack("<d", value)

    if dim == 1:
        law = make_time_barrier_scalar(p, bias=bias)
    else:
        law = make_time_barrier_componentwise(p, dim)
    rng = np.random.default_rng(dim)
    rows = [np.zeros(dim), np.full(dim, 1e300), np.full(dim, -1e-300)]
    rows += [rng.standard_normal(dim) * 10.0 ** rng.uniform(-8, 8) for _ in range(20)]
    if dim > 1:
        rows.append(np.array([0.0, -2.0] + [1.0] * (dim - 2)))
    at = (0.0, 0.3 * p.tc, math.nextafter(p.tc, 0.0))
    states = np.array([x for x in rows for _ in at])
    times = np.array([t for _ in rows for t in at])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the bound overflows to -inf near tc, silently
        got = law.vdot.block(states, times).tolist()
    want = [plain(x.tolist(), t) for x, t in zip(states, times.tolist())]
    assert -math.inf in want
    assert list(map(bits, got)) == list(map(bits, want))


def test_bias_shifts_rhs_and_withdraws_vdot(default_params, default_policy):
    # a biased law states no dV/dt, so the certificate reads it through its field
    spec = make_time_barrier_scalar(default_params, default_policy, bias=0.1)
    base = make_time_barrier_scalar(default_params, default_policy)
    x = np.array([0.7])
    t = 0.3
    assert spec.rhs(x, t)[0] == pytest.approx(base.rhs(x, t)[0] + 0.1, rel=1e-14)
    assert spec.vdot is None


@pytest.mark.parametrize("bias", [math.nan, math.inf, -math.inf])
def test_non_finite_bias_is_rejected_by_name(default_params, default_policy, bias):
    with pytest.raises(ValueError, match="bias"):
        make_time_barrier_scalar(default_params, default_policy, bias=bias)


def test_constructor_allows_q_zero_and_sub_exponent(default_policy):
    make_time_barrier_scalar(BarrierParams(1, 2, 0, 0.5), default_policy)
    make_time_barrier_scalar(BarrierParams(1, 0.5, 1, 0.5), default_policy)
    with pytest.raises(ValueError):
        make_time_barrier_scalar(BarrierParams(-1, 2, 1, 0.5), default_policy)
    with pytest.raises(ValueError):
        make_time_barrier_scalar(BarrierParams(1, 2, 1, 1.2), default_policy)
