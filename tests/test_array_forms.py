"""Block forms of V and dV/dt and the array form of W against plain-Python
references, and the array form of the closed-form oracle against its
one-point function, bit for bit."""

import functools
import math

import numpy as np
import pytest

from timebarrier import (
    BarrierParams,
    DomainError,
    DynamicsSpec,
    NumericPolicy,
    check_dissipation,
    exact_solution_scalar,
    exact_solution_scalar_array,
    simulate,
    w_transform_array,
)
from timebarrier.systems import (
    make_autonomous_power_law,
    make_time_barrier_componentwise,
    make_time_barrier_scalar,
)

P = BarrierParams(1.0, 2.0, 1.0, 0.5)  # m = 1


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 -- type and text are compared
        return type(exc), str(exc)
    return None


def sample_states(dim, n=400, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, 1.0], (n, dim)) * 10.0 ** rng.uniform(-12, 6, (n, dim))
    x[::7] = 0.0
    x[3::11, 0] = 1e-5
    return x


def reference_pair(p, dim=1, bias=0.0):
    """Plain-Python V and dV/dt of the componentwise law, one state at a
    time: an independent reference for its block forms."""
    tc, beta, q, alpha = p.tc, p.beta, p.q, p.alpha

    def v(x, t):
        return abs(float(x[0])) if dim == 1 else float(np.max(np.abs(x)))

    def vdot(x, t):
        if not 0.0 <= t < tc:
            raise DomainError(f"t={t!r} outside [0, tc={tc!r})")
        av = v(x, t)
        if av == 0.0:
            return 0.0
        decay = q * av**alpha
        value = -beta * av / (tc - t) - decay
        if bias:
            i = int(np.argmax(np.abs(x)))
            value += bias * (1.0 if x[i] > 0 else -1.0)
        return value

    return v, vdot


def reference_power_law(q, alpha):
    def v(x, t):
        return float(np.max(np.abs(x)))

    def vdot(x, t):
        av = float(np.max(np.abs(x)))
        return 0.0 if av == 0.0 else -q * av**alpha

    return v, vdot


P_2 = BarrierParams(2.0, 4.0, 0.5, 0.2)
SPECS = {  # name: (spec, reference (v, vdot))
    "scalar": (make_time_barrier_scalar(P), reference_pair(P)),
    "scalar_bias": (make_time_barrier_scalar(P, bias=0.5), reference_pair(P, bias=0.5)),
    "componentwise_2": (make_time_barrier_componentwise(P_2, 2), reference_pair(P_2, 2)),
    "componentwise_3_bias": (
        make_time_barrier_componentwise(P, 3, _bias=-0.25),
        reference_pair(P, 3, bias=-0.25),
    ),
    "power_law": (make_autonomous_power_law(1.5, 0.3)[1], reference_power_law(1.5, 0.3)),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_v_and_vdot_arrays_match_one_state_functions(name):
    spec, reference = SPECS[name]
    states = sample_states(spec.dim)
    horizon = spec.tc if spec.tc is not None else 5.0
    times = np.linspace(0.0, horizon, states.shape[0], endpoint=False)
    times[1] = 0.0
    for which, one in zip(("v", "vdot"), reference):
        want = [one(x, t) for x, t in zip(states, times.tolist())]
        fn = getattr(spec, which)
        assert same_bits(fn.block(states, times), want), which
        # a one-state call is a block of one row
        assert same_bits([fn(x, t) for x, t in zip(states, times.tolist())], want), which


def test_vdot_array_raises_the_domain_error():
    spec, (_, vdot) = SPECS["scalar"]
    states = sample_states(1, n=4)
    times = np.array([0.0, 0.5, 1.0, 0.2])  # t = tc is outside [0, tc)
    want = raised(lambda: [vdot(x, t) for x, t in zip(states, times.tolist())])
    assert want is not None
    assert raised(spec.vdot.block, states, times) == want
    assert raised(spec.vdot, states[2], 1.0) == want


def counted_blocks(monkeypatch, fn):
    """Count the calls of the block form of ``fn``, a built-in V or dV/dt."""
    calls = []
    block = fn.block

    def counting(states, times):
        calls.append(len(times))
        return block(states, times)

    monkeypatch.setattr(fn, "block", counting)
    return calls


def test_user_spec_reusing_law_v_gets_the_block_form(monkeypatch):
    policy = NumericPolicy()
    law = make_time_barrier_componentwise(P, 2, policy)
    spec = DynamicsSpec(dim=2, rhs=law.rhs, label="user", v=law.v, vdot=None, tc=law.tc)
    calls = counted_blocks(monkeypatch, law.v)
    traj = simulate(spec, np.array([1.0, -0.1]), P, policy)
    assert calls == [traj.times.size]  # one block call for the record
    check_dissipation(traj, P, policy)
    assert len(calls) == 2  # and one for the shifted states of the Lie derivative
    assert same_bits(traj.v_values, simulate(law, np.array([1.0, -0.1]), P, policy).v_values)


def test_wraps_wrapper_of_law_v_is_called_per_state(monkeypatch):
    policy = NumericPolicy()
    law = make_time_barrier_componentwise(P, 2, policy)
    blocks = counted_blocks(monkeypatch, law.v)
    states = []

    @functools.wraps(law.v)
    def traced(x, t):
        states.append(t)
        return law.v(x, t)

    spec = DynamicsSpec(dim=2, rhs=law.rhs, v=traced, tc=law.tc)
    traj = simulate(spec, np.array([1.0, -0.1]), P, policy)
    assert len(states) == traj.times.size
    assert blocks == [1] * traj.times.size  # each state is a block of one row


def reference_w(v, t, p):
    """Plain-Python W at one pair: an independent reference for its array
    form, in log space for beta > 30 and where the power leaves the float
    range."""
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
            power = 0.0
        if power != 0.0:
            return v / power
    try:
        return math.exp(math.log(v) - p.beta * math.log(gap))
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("beta", [2.0, 4.0, 30.0, 35.0, 80.0])
def test_w_transform_array_matches(beta):
    p = BarrierParams(2.0, beta, 1.0, 0.5)
    rng = np.random.default_rng(int(beta))
    v = 10.0 ** rng.uniform(-300, 10, 600)
    v[::5] = 0.0
    t = np.sort(rng.uniform(0.0, 0.9 * p.tc, 600))
    t[0] = 0.0
    if beta <= 30.0:  # larger exponents overflow W this close to tc
        t[-1] = p.tc - 1e-9 * p.tc
    want = [reference_w(vi, ti, p) for vi, ti in zip(v.tolist(), t.tolist())]
    assert same_bits(w_transform_array(v, t, p), want)
    # one pair at a time
    pairs = [w_transform_array(vi, ti, p).item() for vi, ti in zip(v.tolist(), t.tolist())]
    assert same_bits(pairs, want)


@pytest.mark.parametrize(
    "p,v,t",
    [
        (P, [1.0, 2.0, 3.0], [0.0, 0.5, 1.0]),  # t = tc
        (P, [1.0, -2.0, 3.0], [0.0, 0.5, 0.7]),  # negative V
        (BarrierParams(0.01, 30.0, 1.0, 0.5), [1.0, 1.0], [0.0, 0.01 - 1e-11]),  # 0 power
        (BarrierParams(1e11, 30.0, 1.0, 0.5), [1.0], [0.0]),  # power overflows
        (BarrierParams(1.0, 80.0, 1.0, 0.5), [1e300, 1e300], [0.0, 1.0 - 1e-9]),  # exp overflows
        (P, [1.0, float("nan")], [0.0, 0.5]),
        (BarrierParams(1.0, 2.0, 1.0, 0.5), [1e308], [0.5]),  # W overflows on the fast path
    ],
    ids=["t_at_tc", "negative_v", "zero_power", "power_overflow", "exp_overflow", "nan_v",
         "exp_overflow_fast_path"],
)
def test_w_transform_array_off_the_fast_path(p, v, t):
    def one_by_one(fn):
        return [fn(vi, ti, p) for vi, ti in zip(v, t)]

    want = raised(one_by_one, reference_w)
    assert raised(one_by_one, w_transform_array) == want  # one pair at a time
    if want is None:
        # no RuntimeWarning either: the suite turns one into an error
        assert same_bits(w_transform_array(v, t, p), one_by_one(reference_w))
        assert same_bits(one_by_one(w_transform_array), one_by_one(reference_w))
    else:
        assert raised(w_transform_array, v, t, p) == want


def test_w_past_the_float_range_is_inf_along_a_run():
    p = BarrierParams(0.01, 8.0, 1.0, 0.5)
    traj = simulate(make_time_barrier_scalar(p), 1e300, p)
    assert np.all(np.isinf(traj.w_values))


ORACLE_PARAMS = {
    "m_1": P,
    "m_above_1": BarrierParams(0.5, 4.0, 2.0, 0.4),
    "m_below_1": BarrierParams(1.0, 1.0, 1.0, 0.5),
    "q_0": BarrierParams(1.0, 2.0, 0.0, 0.5),
    "arg_above_700": BarrierParams(1.0, 80.0, 1.0, 0.5),
    "beta_above_30": BarrierParams(3.0, 35.0, 0.3, 0.2),
}


@pytest.mark.parametrize("name", sorted(ORACLE_PARAMS))
@pytest.mark.parametrize("x0", [1e-6, -1.0, 3.5, -1e6, 0.0])
def test_exact_solution_array_matches(name, x0):
    p = ORACLE_PARAMS[name]
    t = np.concatenate([
        [0.0, 0.0],
        np.linspace(0.0, p.tc - 1e-9 * p.tc, 700),
        p.tc - p.tc * np.logspace(-1, -15, 60),
    ])
    want = [exact_solution_scalar(p, x0, s) for s in t.tolist()]
    assert same_bits(exact_solution_scalar_array(p, x0, t), want)


def test_exact_solution_scalar_matches_array_on_roundtrip_requests():
    # the trajectory_roundtrip distribution, at the times of each request's run
    rng = np.random.default_rng(18)
    policy = NumericPolicy()
    for _ in range(40):
        u = rng.uniform(size=6)
        alpha = 0.1 + 0.8 * u[0]
        p = BarrierParams(10.0 ** (u[3] - 0.5), (1.0 + u[1]) / (1.0 - alpha),
                          10.0 ** (u[2] - 0.5), alpha)
        x0 = (1.0 if u[5] < 0.5 else -1.0) * 10.0 ** (12.0 * u[4] - 6.0)
        times = simulate(make_time_barrier_scalar(p, policy), x0, p, policy).times
        want = [exact_solution_scalar(p, x0, s) for s in times.tolist()]
        assert same_bits(exact_solution_scalar_array(p, x0, times), want)


def test_exact_solution_array_raises_the_scalar_errors():
    for x0, t in [(float("inf"), [0.0]), (1.0, [0.0, 0.5, 1.0]), (1.0, [-1e-3])]:
        want = raised(lambda: [exact_solution_scalar(P, x0, s) for s in t])
        assert want is not None
        assert raised(exact_solution_scalar_array, P, x0, t) == want
    assert exact_solution_scalar_array(P, 1.0, []).shape == (0,)
