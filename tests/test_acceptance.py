"""Acceptance suite: nine criteria, each printed as its own pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Tolerances are pinned here and must not be loosened to make a run
green.
"""

import json

import numpy as np
import pytest

from timebarrier import (
    BarrierParams,
    NumericPolicy,
    SweepConfig,
    barrier_integral,
    check_dissipation,
    exact_solution_scalar,
    find_nonautonomy_witness,
    run_sweep,
    separation_table,
    settling_bound,
    simulate,
)
from timebarrier.cli import main as cli_main
from timebarrier.systems import make_time_barrier_scalar

from conftest import random_admissible

P_DEFAULT = BarrierParams(1.0, 2.0, 1.0, 0.5)
POLICY = NumericPolicy()


def _report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number}: {status} - {detail}")
    assert passed, f"criterion {number}: {detail}"


@pytest.fixture(scope="module")
def decade_trajectories():
    spec = make_time_barrier_scalar(P_DEFAULT, POLICY)
    runs = {}
    for k in range(-6, 7):
        for sign in (1.0, -1.0):
            x0 = sign * 10.0**k
            runs[x0] = simulate(spec, x0, P_DEFAULT, POLICY)
    return runs


def test_criterion_1_deadline_universality(decade_trajectories):
    worst = -np.inf
    failures = 0
    for x0, traj in decade_trajectories.items():
        if traj.converged_at is None or traj.converged_at > 1.0 - 1e-9:
            failures += 1
        else:
            worst = max(worst, traj.converged_at)
    _report(
        1, failures == 0,
        f"deadline met for all 26 initial conditions, latest settling {worst:.12f} <= {1 - 1e-9}",
    )


def test_criterion_2_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst_ratio = 0.0
    failures = 0
    for _ in range(200):
        p = random_admissible(rng)
        x0 = rng.uniform(-1e3, 1e3)
        spec = make_time_barrier_scalar(p, POLICY)
        traj = simulate(spec, x0, p, POLICY)
        exact = np.array([exact_solution_scalar(p, x0, t) for t in traj.times])
        deviation = float(np.max(np.abs(traj.states[:, 0] - exact)))
        allowed = max(1e-6 * abs(x0), 10.0 * POLICY.eps_conv)
        worst_ratio = max(worst_ratio, deviation / allowed)
        if deviation > allowed:
            failures += 1
    _report(
        2, failures == 0,
        f"200 random tuples within max(1e-6|x0|, 10 eps); worst deviation/allowed = {worst_ratio:.3g}",
    )


def test_criterion_3_bound_tightness():
    result = run_sweep(SweepConfig(), POLICY)
    gaps = [
        row.bound_gap / row.tc
        for row in result.rows
        if row.admissible and row.bound_gap is not None
    ]
    missing = [
        row.index
        for row in result.rows
        if row.admissible and row.bound_gap is None and not row.error
    ]
    passed = not missing and gaps and max(gaps) <= 1e-4
    _report(
        3, passed,
        f"|settling - bound| <= 1e-4*tc on {len(gaps)} admissible rows, worst {max(gaps):.3g}",
    )
    # the same run carries the grid-wide universality guarantees
    assert result.summary["deadline_failures"] == 0
    assert result.summary["certificate_failures"] == 0
    assert result.summary["oracle_failures"] == 0


def test_criterion_4_certificate_soundness():
    rng = np.random.default_rng(77)
    clean_failures = 0
    for _ in range(100):
        p = random_admissible(rng)
        spec = make_time_barrier_scalar(p, POLICY)
        x0 = 10.0 ** rng.uniform(-3, 3) * rng.choice([-1.0, 1.0])
        traj = simulate(spec, x0, p, POLICY)
        report = check_dissipation(traj, p, POLICY)
        if report.violations:
            clean_failures += 1
    residuals = []
    bias_ok = True
    for bias in (0.01, 0.1, 1.0):
        spec = make_time_barrier_scalar(P_DEFAULT, POLICY, bias=bias)
        traj = simulate(spec, 1.0, P_DEFAULT, POLICY)
        report = check_dissipation(traj, P_DEFAULT, POLICY)
        residuals.append(report.max_residual)
        if len(report.violations) < 1:
            bias_ok = False
    nondecreasing = all(b >= a for a, b in zip(residuals, residuals[1:]))
    passed = clean_failures == 0 and bias_ok and nondecreasing
    _report(
        4, passed,
        "0 violations on 100 clean runs; bias 0.01/0.1/1 all detected "
        f"with max residuals {[f'{r:.3g}' for r in residuals]}",
    )


def test_criterion_5_w_monotonicity(decade_trajectories):
    worst = -np.inf
    for traj in decade_trajectories.values():
        worst = max(worst, float(np.max(np.diff(traj.w_values))))
    passed = worst <= POLICY.residual_tol
    _report(
        5, passed,
        f"largest W increase between consecutive samples {worst:.3g} <= {POLICY.residual_tol}",
    )


def test_criterion_6_divergence_witness():
    integrals_ok = True
    for beta in (2.0, 3.0, 4.0):  # m = 1, 1.5, 2
        p = BarrierParams(1.0, beta, 1.0, 0.5)
        if barrier_integral(p, 1.0 - 1e-12) <= 10.0:
            integrals_ok = False
    witness = find_nonautonomy_witness(P_DEFAULT, 0.25, 0.0, 0.5)
    gap_ok = abs(witness.gap - 0.5) <= 1e-12
    _report(
        6, integrals_ok and gap_ok,
        f"barrier integral > 10 at tc - 1e-12*tc for m in (1, 1.5, 2); witness gap {witness.gap!r}",
    )


def test_criterion_7_separation_table():
    x0s = [10.0**k for k in range(-3, 7)] + [0.25, 0.2498, 0.2502]
    rows = separation_table(1.0, 1.0, 0.5, sorted(x0s), POLICY)
    flags_ok = all(
        row.autonomous_exceeds_deadline == (2.0 * abs(row.x0) ** 0.5 > 1.0)
        for row in rows
    )
    barrier_ok = all(
        row.barrier_settling is not None and row.barrier_settling < 1.0
        for row in rows
    )
    _report(
        7, flags_ok and barrier_ok,
        f"{len(rows)} rows: comparator exceeds the deadline exactly when |x0| > 0.25; "
        "deadline law settles before tc up to |x0|=1e6",
    )


def test_criterion_8_sub_exponent_boundary():
    p = BarrierParams(1.0, 0.5, 1.0, 0.5)  # m = 0.25
    threshold_z = p.q * (1 - p.alpha) * p.tc / (1 - p.m)  # = 2/3
    policy = NumericPolicy(delta_end=1e-6)
    spec = make_time_barrier_scalar(p, policy)
    below = (0.30, 0.38, 0.45, 0.53, 0.60, 0.68, 0.75, 0.83, 0.90, 0.98)
    above = (1.05, 1.1, 1.2, 1.35, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0)
    agreements = 0
    for factor in below + above:
        x0 = (factor * threshold_z) ** (1.0 / (1.0 - p.alpha))
        sb = settling_bound(p, x0)
        traj = simulate(spec, x0, p, policy)
        if factor < 1.0:
            ok = sb.reaches_zero and traj.terminal_norm <= 10 * policy.eps_conv
        else:
            ok = (not sb.reaches_zero) and traj.terminal_norm > 10 * policy.eps_conv
        agreements += ok
    _report(
        8, agreements == 20,
        f"analytic reaching threshold and terminal state at tc - 1e-6 agree on {agreements}/20 points",
    )


def test_criterion_9_sweep_determinism(tmp_path, capsys):
    config = {
        "sweep": {
            "tc": [0.5, 1.0], "beta": [2.0, 3.0], "q": [0.5, 1.0],
            "alpha": [0.4, 0.5], "x0_decades": [-6, 6],
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code_a = cli_main(["--quiet", "--config", str(cfg_path), "--out", str(out_a), "sweep"])
    code_b = cli_main(["--quiet", "--config", str(cfg_path), "--out", str(out_b), "sweep"])
    capsys.readouterr()
    identical = out_a.read_bytes() == out_b.read_bytes()
    passed = code_a == 0 and code_b == 0 and identical
    _report(
        9, passed,
        f"two sweep runs over {16 * 13} rows produced byte-identical CSV output",
    )
