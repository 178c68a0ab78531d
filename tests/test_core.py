"""Parameter validation, the exponent condition, and shared policy checks."""

import dataclasses
import importlib
import math
import re

import numpy as np
import pytest

import timebarrier
from timebarrier import (
    BarrierParams,
    DivergentIntegralError,
    DomainError,
    DynamicsSpec,
    NumericPolicy,
    SweepConfig,
    barrier_integral,
    exact_solution_scalar,
    exact_solution_scalar_array,
    find_nonautonomy_witness,
    remaining_settling_time,
    resample,
    settling_bound,
    simulate,
    validate_params,
    validate_spec,
    w_transform_array,
)
from timebarrier.core import _Blockwise
from timebarrier.systems import (
    make_autonomous_power_law,
    make_time_barrier_componentwise,
    make_time_barrier_scalar,
)


def test_validate_params_boundary_admissible():
    p = BarrierParams(1, 2, 1, 0.5)
    verdict = validate_params(p)
    assert verdict.admissible
    assert p.m == 1.0
    assert verdict.reason is None


def test_validate_params_inadmissible_exponent():
    verdict = validate_params(BarrierParams(1, 1, 1, 0.5))
    assert not verdict.admissible
    assert verdict.reason == "beta*(1-alpha)=0.5 < 1"


def test_validate_params_small_q_admissible():
    p = BarrierParams(1, 4, 0.3, 0.75)
    assert validate_params(p).admissible
    assert p.m == 1.0


@pytest.mark.parametrize(
    "kwargs, reason_part",
    [
        (dict(tc=-1, beta=2, q=1, alpha=0.5), "tc"),
        (dict(tc=1, beta=0, q=1, alpha=0.5), "beta"),
        (dict(tc=1, beta=2, q=0, alpha=0.5), "q"),
        (dict(tc=1, beta=2, q=1, alpha=1.5), "alpha"),
        (dict(tc=1, beta=2, q=1, alpha=0.0), "alpha"),
    ],
)
def test_validate_params_positivity(kwargs, reason_part):
    verdict = validate_params(BarrierParams(**kwargs))
    assert not verdict.admissible
    assert reason_part in verdict.reason


def test_validate_params_non_finite_distinct():
    verdict = validate_params(BarrierParams(1, math.nan, 1, 0.5))
    assert not verdict.admissible
    assert verdict.reason == "non-finite parameter: beta"
    verdict = validate_params(BarrierParams(math.inf, 2, 1, 0.5))
    assert verdict.reason == "non-finite parameter: tc"


@pytest.mark.parametrize(
    "beta, alpha, expected",
    [(2.0, 0.5, 1.0), (3.0, 0.5, 1.5), (0.5, 0.5, 0.25)],
)
def test_barrier_exponent_values(beta, alpha, expected):
    assert BarrierParams(1, beta, 1, alpha).m == expected


def test_exponent_precomputed_once():
    p = BarrierParams(1, 2.3, 1, 0.37)
    assert p.m == 2.3 * (1.0 - 0.37)
    # the verdict reads the tuple's own m: its reason names it
    low = BarrierParams(1, 1.3, 1, 0.37)
    assert validate_params(low).reason == f"beta*(1-alpha)={low.m:g} < 1"


def test_validate_monotone_in_beta():
    rng = np.random.default_rng(7)
    for _ in range(2000):
        alpha = rng.uniform(0.01, 0.99)
        beta1 = rng.uniform(0.1, 5.0)
        q = rng.uniform(0.1, 5.0)
        tc = rng.uniform(0.1, 5.0)
        p1 = BarrierParams(tc, beta1, q, alpha)
        if validate_params(p1).admissible:
            beta2 = beta1 * rng.uniform(1.0, 3.0) + rng.uniform(0.0, 1.0)
            assert validate_params(BarrierParams(tc, beta2, q, alpha)).admissible


def test_validate_agrees_with_exponent():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        p = BarrierParams(
            rng.uniform(-1, 3), rng.uniform(-1, 6), rng.uniform(-1, 3),
            rng.uniform(-0.2, 1.2),
        )
        positivity = p.tc > 0 and p.beta > 0 and p.q > 0 and 0 < p.alpha < 1
        expected = positivity and p.m >= 1.0
        assert validate_params(p).admissible == expected


# one tuple per broken rule of the law's domain, with the text every entry point raises
OUTSIDE_THE_DOMAIN = {
    "nan_tc": ((math.nan, 2, 1, 0.5), "non-finite parameter: tc"),
    "nan_beta": ((1, math.nan, 1, 0.5), "non-finite parameter: beta"),
    "nan_q": ((1, 2, math.nan, 0.5), "non-finite parameter: q"),
    "nan_alpha": ((1, 2, 1, math.nan), "non-finite parameter: alpha"),
    "tc_0": ((0, 2, 1, 0.5), "tc must be > 0"),
    "tc_negative": ((-1, 2, 1, 0.5), "tc must be > 0"),
    "beta_negative": ((1, -2, 1, 0.5), "beta must be >= 0"),
    "q_negative": ((1, 2, -1, 0.5), "q must be >= 0"),
    "alpha_0": ((1, 2, 1, 0.0), "alpha in (0,1) violated"),
    "alpha_1": ((1, 2, 1, 1.0), "alpha in (0,1) violated"),
    "alpha_1.5": ((1, 2, 1, 1.5), "alpha in (0,1) violated"),
}

ENTRY_POINTS = {
    "make_time_barrier_scalar": lambda p: make_time_barrier_scalar(p),
    "make_time_barrier_componentwise": lambda p: make_time_barrier_componentwise(p, 2),
    "SweepConfig": lambda p: SweepConfig(
        tc_values=(p.tc,), beta_values=(p.beta,), q_values=(p.q,), alpha_values=(p.alpha,)
    ),
    "simulate_user_spec": lambda p: simulate(DynamicsSpec(1, rhs=lambda x, t: -x), 1.0, p),
    "exact_solution_scalar": lambda p: exact_solution_scalar(p, 1.0, 0.5),
    "exact_solution_scalar_array": lambda p: exact_solution_scalar_array(p, 1.0, [0.0, 0.5]),
    "settling_bound": lambda p: settling_bound(p, 1.0),
    "remaining_settling_time": lambda p: remaining_settling_time(p, 1.0, 0.25),
    "barrier_integral": lambda p: barrier_integral(p, 0.5),
    "find_nonautonomy_witness": lambda p: find_nonautonomy_witness(p, 0.25, 0.0, 0.5),
    "w_transform_array": lambda p: w_transform_array([1.0], [0.5], p),
}


@pytest.mark.parametrize("case", sorted(OUTSIDE_THE_DOMAIN))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_one_domain_rule_at_every_entry_point(case, entry):
    args, text = OUTSIDE_THE_DOMAIN[case]
    p = BarrierParams(*args)  # any numbers construct a tuple
    with pytest.raises(ValueError) as info:
        ENTRY_POINTS[entry](p)
    assert type(info.value) is ValueError
    assert str(info.value) == text


@pytest.mark.parametrize("case", sorted(OUTSIDE_THE_DOMAIN))
def test_verdict_reason_is_the_domain_rule(case):
    args, text = OUTSIDE_THE_DOMAIN[case]
    p = BarrierParams(*args)
    verdict = validate_params(p)
    assert (verdict.admissible, verdict.reason) == (False, text)
    # the stored verdict is neither shown nor compared
    assert "_fault" not in repr(p)
    assert BarrierParams(1, 2, 1, 0.5) == BarrierParams(1.0, 2.0, 1.0, 0.5)


# the law's time domain [0, tc) at tc = 1: each time with the text every entry
# point raises, or None for a time inside it
TIMES = {
    "negative": (-1.0, "t=-1.0 outside [0, tc=1.0)"),
    "negative_zero": (-0.0, None),
    "tc": (1.0, "t=1.0 outside [0, tc=1.0)"),
    "past_tc": (1.5, "t=1.5 outside [0, tc=1.0)"),
    "nan": (math.nan, "t=nan outside [0, tc=1.0)"),
}

P_TIME = BarrierParams(1, 2, 1, 0.5)
LAW = make_time_barrier_scalar(P_TIME)

TIME_ENTRY_POINTS = {
    "kernel": lambda t: LAW.rhs.kernel(0.5, t),
    "rhs": lambda t: LAW.rhs(np.array([0.5]), t),
    "vdot_block": lambda t: LAW.vdot.block(np.array([[0.5], [0.5]]), np.array([0.0, t])),
    "w_transform_array": lambda t: w_transform_array([1.0, 1.0], [0.0, t], P_TIME),
    "exact_solution_scalar": lambda t: exact_solution_scalar(P_TIME, 1.0, t),
    "exact_solution_scalar_array": lambda t: exact_solution_scalar_array(P_TIME, 1.0, [0.0, t]),
    "remaining_settling_time": lambda t: remaining_settling_time(P_TIME, 1.0, t),
    "find_nonautonomy_witness": lambda t: find_nonautonomy_witness(P_TIME, 0.25, t, 0.5),
}


@pytest.mark.parametrize("case", sorted(TIMES))
@pytest.mark.parametrize("entry", sorted(TIME_ENTRY_POINTS))
def test_one_time_rule_at_every_entry_point(case, entry):
    t, text = TIMES[case]
    if text is None:
        TIME_ENTRY_POINTS[entry](t)
        return
    with pytest.raises(DomainError) as info:
        TIME_ENTRY_POINTS[entry](t)
    assert type(info.value) is DomainError
    assert isinstance(info.value, ValueError)
    assert str(info.value) == text


BIG = 10**400  # an int past the float range: float(BIG) raises OverflowError
T_INF = r"^t=inf outside \[0, tc=1\.0\)$"
TC_INF = "^non-finite parameter: tc$"

# a call with an int past the float range, the error of the rule that names it
# read as +-inf, and that error's text
PAST_THE_FLOAT_RANGE = {
    "NumericPolicy": (lambda: NumericPolicy(eps_conv=BIG), ValueError,
                      "^eps_conv must be strictly positive, got 1000"),
    "BarrierParams": (lambda: barrier_integral(BarrierParams(BIG, 2, 1, 0.5), 0.5),
                      ValueError, TC_INF),
    "make_time_barrier_scalar": (lambda: make_time_barrier_scalar(P_TIME, bias=BIG),
                                 ValueError, "^bias must be finite, got inf$"),
    "make_autonomous_power_law": (lambda: make_autonomous_power_law(BIG, 0.5),
                                  ValueError, "^q must be > 0$"),
    "barrier_integral": (lambda: barrier_integral(P_TIME, BIG), DomainError, T_INF),
    "barrier_integral_negative": (lambda: barrier_integral(P_TIME, -BIG), DomainError,
                                  r"^t=-inf outside "),
    "remaining_settling_time": (lambda: remaining_settling_time(P_TIME, 1.0, BIG),
                                DomainError, T_INF),
    "SweepConfig": (lambda: SweepConfig(tc_values=(BIG,)), ValueError, TC_INF),
    "find_nonautonomy_witness": (lambda: find_nonautonomy_witness(P_TIME, 0.25, 0.0, BIG),
                                 DomainError, T_INF),
    "exact_solution_scalar": (lambda: exact_solution_scalar(P_TIME, 1.0, BIG),
                              DomainError, T_INF),
    "exact_solution_scalar_array": (lambda: exact_solution_scalar_array(P_TIME, 1.0, [0.5, BIG]),
                                    DomainError, T_INF),
    "w_transform_array": (lambda: w_transform_array(1.0, BIG, P_TIME), DomainError, T_INF),
    "resample": (lambda: resample(simulate(LAW, 1.0, P_TIME), [BIG]), ValueError,
                 r"^times must be finite and within \[0, 0\.999999999\], got array\(\[inf\]\)$"),
}


@pytest.mark.parametrize("case", sorted(PAST_THE_FLOAT_RANGE))
def test_an_int_past_the_float_range_is_named_by_its_rule(case):
    call, error, text = PAST_THE_FLOAT_RANGE[case]
    with pytest.raises(error, match=text) as info:
        call()
    assert type(info.value) is error


def test_witness_names_the_first_time_outside_the_domain():
    with pytest.raises(DomainError, match=r"^t=1\.5 outside \[0, tc=1\.0\)$"):
        find_nonautonomy_witness(P_TIME, 0.25, 0.0, 1.5)
    with pytest.raises(DomainError, match=r"^t=-1\.0 "):
        find_nonautonomy_witness(P_TIME, 0.25, -1.0, 1.5)
    # times inside the domain in the wrong order are a plain ValueError
    with pytest.raises(ValueError) as info:
        find_nonautonomy_witness(P_TIME, 0.25, 0.5, 0.2)
    assert type(info.value) is ValueError


@pytest.mark.parametrize("params", [P_TIME, BarrierParams(1, 1, 1, 0.5)], ids=["m_1", "m_0.5"])
def test_barrier_integral_past_the_deadline_is_a_domain_error(params):
    for t, text in [(1.5, "t=1.5 outside [0, tc=1.0)"), (-1.0, "t=-1.0 outside [0, tc=1.0)"),
                    (math.nan, "t=nan outside [0, tc=1.0)")]:
        with pytest.raises(DomainError) as info:
            barrier_integral(params, t)
        assert str(info.value) == text
    # the integral's own domain is closed: finite at tc for m < 1, divergent for m >= 1
    if params.m >= 1.0:
        with pytest.raises(DivergentIntegralError):
            barrier_integral(params, 1.0)
    else:
        assert barrier_integral(params, 1.0) == 2.0


@pytest.mark.parametrize("horizon", [2.0, math.inf, math.nan, -1.0, 0.0])
def test_validate_spec_rejects_a_horizon_outside_the_law_domain(horizon):
    with pytest.raises(ValueError, match="horizon") as info:
        validate_spec(LAW, horizon)
    assert type(info.value) is ValueError


def test_validate_spec_horizon_of_a_spec_without_deadline():
    spec = DynamicsSpec(1, rhs=lambda x, t: -x)
    assert validate_spec(spec, 1e6) == []
    with pytest.raises(ValueError, match="horizon"):
        validate_spec(spec, math.inf)


def test_validate_spec_names_a_horizon_past_the_float_range():
    # an int past the float range: the horizon's ValueError, not numpy's UFuncTypeError
    with pytest.raises(ValueError, match="horizon") as info:
        validate_spec(DynamicsSpec(1, rhs=lambda x, t: -x), 10**400)
    assert type(info.value) is ValueError


def test_package_exports_each_module_public_names_once():
    modules = ("analytic", "certify", "core", "integrate", "sweep", "systems")
    union = set().union(*(getattr(timebarrier, name).__all__ for name in modules))
    assert timebarrier.__all__ == sorted(union)
    for name in timebarrier.__all__:
        assert hasattr(timebarrier, name)


def test_policy_rejects_bad_fields():
    with pytest.raises(ValueError):
        NumericPolicy(rel_tol=-1e-9)
    with pytest.raises(ValueError):
        NumericPolicy(eps_conv=0.0)
    for delta_end in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="delta_end must be strictly positive"):
            NumericPolicy(delta_end=delta_end)
    for name in ("eps_conv", "rel_tol", "abs_tol", "residual_tol", "delta_end"):
        # None is the automatic delta_end, so it is not a bad value there
        for value in (None, "1e-8", [1]) if name != "delta_end" else ("1e-8", [1]):
            with pytest.raises(TypeError, match=f"^{name} must be a real number, got "):
                NumericPolicy(**{name: value})


def test_spec_rejects_a_dim_below_one_and_vdot_without_v():
    with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
        DynamicsSpec(dim=0, rhs=lambda x, t: -x)
    with pytest.raises(ValueError, match="vdot without v"):
        DynamicsSpec(dim=1, rhs=lambda x, t: -x, vdot=lambda x, t: 0.0)


@pytest.mark.parametrize(
    "fields, name, value",
    [({"rhs": None}, "rhs", None), ({"v": 3.0}, "v", 3.0),
     ({"v": abs, "vdot": "dV/dt"}, "vdot", "dV/dt")],
    ids=["rhs-None", "v-float", "vdot-str"],
)
def test_spec_rejects_a_field_that_is_not_callable(fields, name, value):
    # named at construction, not by a TypeError once a run has stepped
    with pytest.raises(ValueError, match=f"^{name} must be callable, got {value!r}$"):
        DynamicsSpec(**{"dim": 1, "rhs": lambda x, t: -x, **fields})


@pytest.mark.parametrize(
    "tc", [math.nan, 0, -1.0, -math.inf, -10**400, True, "2", 1 + 2j],
    ids=["nan", "zero", "negative", "-inf", "-int-past-float", "bool", "str", "complex"],
)
def test_spec_rejects_a_tc_that_is_not_a_real_number_above_zero(tc):
    # one reading at construction: simulate ran a NaN tc and validate_spec rejected
    # every horizon against it, and a str or complex tc was a bare TypeError in simulate
    text = f"^tc must be a real number > 0 or None, got {re.escape(repr(tc))}$"
    with pytest.raises(ValueError, match=text):
        DynamicsSpec(dim=1, rhs=lambda x, t: -x, tc=tc)
    with pytest.raises(ValueError, match=text):
        dataclasses.replace(LAW, tc=tc)


@pytest.mark.parametrize(
    "make", [lambda dim: DynamicsSpec(dim=dim, rhs=lambda x, t: -x),
             lambda dim: make_time_barrier_componentwise(P_TIME, dim)],
    ids=["DynamicsSpec", "make_time_barrier_componentwise"],
)
@pytest.mark.parametrize("dim", [2.0, 1.5, True])
def test_spec_rejects_a_dim_that_is_not_an_integer(make, dim):
    with pytest.raises(ValueError, match=f"^dim must be an integer, got {dim!r}$"):
        make(dim)


def test_policy_delta_end_resolution():
    policy = NumericPolicy()
    assert policy.resolve_delta_end(1.0) == 1e-9
    assert policy.resolve_delta_end(1e-4) == 1e-12
    explicit = NumericPolicy(delta_end=1e-6)
    assert explicit.resolve_delta_end(1.0) == 1e-6
    with pytest.raises(ValueError):
        explicit.resolve_delta_end(1e-7)


def test_w_transform_values(default_params):
    assert w_transform_array(1.0, 0.0, default_params).item() == 1.0
    assert w_transform_array(0.25, 0.5, default_params).item() == 1.0
    assert w_transform_array(0.0, 0.7, default_params).item() == 0.0
    with pytest.raises(DomainError):
        w_transform_array(1.0, 1.0, default_params).item()
    with pytest.raises(DomainError):
        w_transform_array(1.0, -0.1, default_params).item()


def test_w_transform_array_broadcasts_v_against_t(default_params):
    assert w_transform_array([1.0, 2.0], 0.5, default_params).tolist() == [4.0, 8.0]
    assert w_transform_array(1.0, [0.0, 0.5], default_params).tolist() == [1.0, 4.0]
    with pytest.raises(ValueError, match="negative Lyapunov value -1.0"):
        w_transform_array([1.0, -1.0], 0.5, default_params)
    with pytest.raises(DomainError, match=r"t=1.0 outside \[0, tc=1.0\)"):
        w_transform_array([1.0, 2.0], 1.0, default_params)


def test_w_transform_log_space_branch():
    p = BarrierParams(1.0, 64.0, 1.0, 0.5)
    got = w_transform_array(1e-3, 0.5, p).item()
    want = 1e-3 / 0.5**64.0
    assert got == pytest.approx(want, rel=1e-12)


def test_w_transform_out_of_range_power():
    # (1e-11)**30 underflows to 0.0: the log form gives v / 1e-330
    p = BarrierParams(0.01, 30.0, 1.0, 0.5)
    t = 0.01 - 1e-11
    assert w_transform_array(1e-300, t, p).item() == pytest.approx(1e30, rel=1e-4)
    # (1e11)**30 overflows: the log form gives v / 1e330
    assert w_transform_array(1e300, 0.0, BarrierParams(1e11, 30.0, 1.0, 0.5)).item() == pytest.approx(
        1e-30, rel=1e-9
    )
    # a W above the float range is inf in both forms
    assert w_transform_array(1e300, 1.0 - 1e-9, BarrierParams(1.0, 2.0, 1.0, 0.5)).item() == math.inf
    assert w_transform_array(1e300, 1.0 - 1e-9, BarrierParams(1.0, 80.0, 1.0, 0.5)).item() == math.inf


def test_validate_spec_passes_builtin(default_params, default_policy):
    spec = make_time_barrier_scalar(default_params, default_policy)
    assert validate_spec(spec, default_params.tc) == []


def test_validate_spec_flags_broken_equilibrium(default_params, default_policy):
    biased = make_time_barrier_scalar(default_params, default_policy, bias=0.1)
    # one problem per kind
    assert validate_spec(biased, default_params.tc) == [
        "rhs(0, 0) = array([0.1]) is not the zero vector"
    ]


def test_validate_spec_flags_an_rhs_of_the_wrong_shape(default_params, default_policy):
    for spec in (
        DynamicsSpec(3, rhs=lambda x, t: 0.0),
        DynamicsSpec(2, rhs=lambda x, t: np.zeros(3), label="three values"),
    ):
        # a broken call contract raises the text that simulate raises for the same spec
        with pytest.raises(ValueError) as raised:
            simulate(spec, np.ones(spec.dim), default_params, default_policy)
        with pytest.raises(ValueError, match=re.escape(str(raised.value))):
            validate_spec(spec, 1.0)


@pytest.mark.parametrize(
    "dim, v, text",
    [
        (2, lambda x, t: np.abs(x), "v returned shape (2,), expected ()"),
        (1, lambda x, t: [abs(x[0]), 0.0], "v returned shape (2,), expected ()"),
        (2, _Blockwise(lambda states, times: np.abs(states)), "v returned shape (2,), expected ()"),
    ],
    ids=["array-per-state", "list-per-state", "block-of-arrays"],
)
def test_validate_spec_raises_on_a_v_of_the_wrong_shape(dim, v, text, default_params, default_policy):
    # a V that gives no float per state breaks the call contract, as it does in simulate
    law = make_time_barrier_componentwise(default_params, dim, default_policy)
    spec = DynamicsSpec(dim=dim, rhs=law.rhs, label="shaped V", v=v)
    with pytest.raises(ValueError, match=f"^{re.escape(text)} \\(shaped V\\)$"):
        validate_spec(spec, default_params.tc)


@pytest.mark.parametrize(
    "field, text",
    [
        ({"rhs": lambda x, t: np.zeros(2) if t < 0.5 else np.zeros(3)},
         "rhs returned shape (3,), expected (2,)"),
        ({"v": lambda x, t: 0.0 if not x.any() else np.abs(x)},
         "v returned shape (2,), expected ()"),
        ({"v": lambda x, t: None}, "v returned None, which is not real-valued"),
        ({"v": lambda x, t: "0"}, "v returned '0', which is not real-valued"),
    ],
    ids=["rhs-shape-varies", "v-shape-varies", "v-none", "v-string"],
)
def test_validate_spec_names_a_per_state_value_it_cannot_read(field, text, default_params):
    # each per-state value is checked on its own, so one that differs from the
    # values before it, or is not a number, is named rather than stacked or read as NaN
    law = make_time_barrier_componentwise(default_params, 2)
    spec = DynamicsSpec(**{"dim": 2, "rhs": law.rhs, "label": "per state", **field})
    with pytest.raises(ValueError, match=f"^{re.escape(text)} \\(per state\\)$"):
        validate_spec(spec, default_params.tc)


def _zero_in_a_band(origin_value):
    """A user V, one state per call: max|x_i|, but ``origin_value`` at the
    origin and zero where max|x_i| lies in [0.5, 0.6)."""

    def v(x, t):
        r = float(np.max(np.abs(x)))
        if r == 0.0:
            return origin_value
        return 0.0 if 0.5 <= r < 0.6 else r

    return v


@pytest.mark.parametrize(
    "origin_value, expected, calls",
    [
        (0.0, ["V(x, 0.5) = 0.0 not positive at |x|=0.806651"], 16 + 9 * 64),
        (
            1e-3,
            ["V(0, 0) = 0.001 is not zero", "V(x, 0.5) = 0.0 not positive at |x|=0.806651"],
            16 + 9 * 64,
        ),
    ],
    ids=["nonpositive-at-one-radius", "nonzero-at-origin-too"],
)
def test_validate_spec_reports_the_first_problem_of_each_kind(
    origin_value, expected, calls, default_params, default_policy
):
    law = make_time_barrier_componentwise(default_params, 2, default_policy)
    v = _zero_in_a_band(origin_value)
    seen = []

    def per_state(x, t):
        seen.append(t)
        return v(x, t)

    spec = DynamicsSpec(dim=2, rhs=law.rhs, label="user V", v=per_state, tc=law.tc)
    assert validate_spec(spec, default_params.tc) == expected
    # V is evaluated once on every sampled state; each kind reports its first problem
    assert len(seen) == calls
    blocks = []

    def block(states, times):
        blocks.append(len(states))
        return np.array([v(x, t) for x, t in zip(states, times.tolist())])

    # the block form of the same V: one call on every sampled state, same report
    as_block = dataclasses.replace(spec, v=_Blockwise(block))
    assert validate_spec(as_block, default_params.tc) == expected
    assert blocks == [16 + 9 * 64]


@pytest.mark.parametrize(
    "module", ["timebarrier", "timebarrier.core", "timebarrier.analytic",
               "timebarrier.systems", "timebarrier.integrate", "timebarrier.certify",
               "timebarrier.sweep", "timebarrier.cli"],
)
def test_public_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
