"""The three workloads: seeded inputs, the timed call chain of one op, and
the correctness checks on its outputs.

Each workload is a closed loop with one client: the next call starts when the
previous one has returned. A run makes one call per input, and ``size(seconds)``
is the number of inputs that take about ``seconds`` on the reference host,
where one call takes ``1 / rate`` seconds on average. The work of a run
therefore depends only on its seed and length, never on how fast the host
happens to be, and its attempted and failed counts repeat exactly.

``inputs(seed, size)`` builds every input before timing starts, and ``call``
passes the library only those generated values. Continuous inputs follow an
additive-recurrence (Kronecker) sequence with a seeded offset, so every seed
gets the same even spread over the input distribution and the quantiles of a
run's latencies do not hinge on a few lucky draws. All library functions are
looked up on their module at call time (``tb.simulate``,
``tb_cli.render_trajectory_csv``) so the tracer's wrappers see every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import timebarrier as tb
import timebarrier.cli as tb_cli

# residual_tol that tests/test_certify.py pins for the finite-difference
# certificate route; its one-sided stencil at t = 0 trips the default 1e-7
FD_SLACK = 1e-4


def kronecker(seed: int, n: int, d: int) -> np.ndarray:
    """``n`` points of the d-dimensional R_d sequence in [0, 1)^d, offset by a
    seeded shift. Any prefix covers the unit cube evenly."""
    phi = 2.0
    for _ in range(64):  # the root of x^(d+1) = x + 1
        phi = (1.0 + phi) ** (1.0 / (d + 1))
    step = phi ** -np.arange(1.0, d + 1.0)
    shift = np.random.default_rng(seed).random(d)
    return (shift + np.arange(1.0, n + 1.0)[:, None] * step) % 1.0


@dataclass
class Outcome:
    """What one op did.

    ``failures`` has one message per unit that failed a check of its
    workload: the op did not succeed for its user. ``wrong`` lists outputs
    that disagree with an independent reference (closed form, the parsed
    CSV); those make the run incorrect, where an honest verdict such as a
    deadline FAIL that the closed form confirms does not. ``work`` comes from
    public result fields only (``Trajectory``, ``SweepRow``,
    ``CertificateReport``) and must repeat exactly for a seed.
    """

    units: int
    failures: list = field(default_factory=list)
    wrong: list = field(default_factory=list)
    work: dict = field(default_factory=dict)


def _oracle_tolerance(x0: float, policy: tb.NumericPolicy) -> float:
    return max(1e-6 * abs(x0), 10.0 * policy.eps_conv)


def _oracle_failures(states, x0, exact, policy) -> list:
    failures = []
    for i, xi in enumerate(x0):
        error = float(np.max(np.abs(states[:, i] - exact[:, i])))
        if not error <= _oracle_tolerance(xi, policy):
            failures.append(f"oracle error {error:.3g} on x_{i + 1} (x0={xi:.6g})")
    return failures


def _deadline_checks(report, traj) -> tuple:
    """(failures, wrong) for the deadline verdict of one trajectory.

    A deadline FAIL is honest when the closed-form settling time lies past
    ``t_end = tc - delta_end``, and wrong when it lies before.
    """
    if report.deadline_pass:
        return [], []
    message = f"deadline missed: converged_at={report.converged_at!r}, tau_bound={report.tau_bound!r}"
    if report.tau_bound <= traj.t_end:
        return [], [f"{message}, although the closed form settles before t_end"]
    return [message], []


def _request_outcome(request: str, failures: list, wrong: list, work: dict) -> Outcome:
    """A request fails once, however many of its checks fail; a wrong
    output is also a failure."""
    problems = failures + wrong
    return Outcome(
        1,
        [f"{request}: {'; '.join(problems)}"] if problems else [],
        [f"{request}: {w}" for w in wrong],
        work,
    )


def _trajectory_work(traj) -> dict:
    return {
        "steps_accepted": traj.step_count,
        "steps_rejected": traj.rejected_steps,
        "samples": len(traj.samples),
    }


class GridSweep:
    name = "grid_sweep"
    why = (
        "run_sweep(DEFAULT_GRID) with all four checks, then render_sweep_csv: the "
        "'every initial condition' surrogate; ~88% of it is integrate.simulate"
    )
    trace_ops = 1
    rate = 1.0 / 16.0  # sweeps per second

    def __init__(self):
        self.policy = tb.NumericPolicy()

    def size(self, seconds: float) -> int:
        """Sweeps of the one grid: at least two, so a run has a median."""
        return max(2, round(seconds * self.rate))

    def inputs(self, seed: int, size: int) -> list:
        # the grid is fixed, so the seed is not used
        return [tb.DEFAULT_GRID] * size

    def call(self, cfg):
        result = tb.run_sweep(cfg, self.policy)
        return result, tb_cli.render_sweep_csv(result)

    def check(self, cfg, out) -> Outcome:
        result, text = out
        failures = []
        for row in result.rows:
            problems = [row.error] if row.error else []
            problems += [
                name for name in ("deadline_pass", "certificate_pass", "oracle_pass")
                if getattr(row, name) is not True
            ]
            if row.bound_gap is None or row.bound_gap > 1e-4 * row.tc:
                problems.append(f"bound_gap={row.bound_gap!r}")
            if problems:
                failures.append(f"row {row.index}: {', '.join(problems)}")
        expected_rows = len(cfg.grid()) * len(cfg.x0_values())
        if len(result.rows) != expected_rows:
            failures.append(f"{len(result.rows)} rows, expected {expected_rows}")
        if text.count("\n") != len(result.rows) + 1:
            failures.append("sweep CSV does not have one line per row")
        work = {
            "rows": len(result.rows),
            "steps_accepted": sum(row.step_count or 0 for row in result.rows),
        }
        return Outcome(len(result.rows), failures, [], work)


class TrajectoryRoundtrip:
    name = "trajectory_roundtrip"
    why = (
        "simulate --out plus certify per request, random admissible params, "
        "x0=+-10^U(-6,6): per-trajectory sampling, oracle and CSV costs dominate"
    )
    trace_ops = 150
    rate = 40.0  # requests per second

    def __init__(self):
        self.policy = tb.NumericPolicy()

    def size(self, seconds: float) -> int:
        return max(1, round(seconds * self.rate))

    def inputs(self, seed: int, size: int) -> list:
        items = []
        for u in kronecker(seed, size, 6):
            # the distribution of tests/conftest.py::random_admissible
            alpha = 0.1 + 0.8 * u[0]
            beta = (1.0 + u[1]) / (1.0 - alpha)
            q = 10.0 ** (u[2] - 0.5)
            tc = 10.0 ** (u[3] - 0.5)
            x0 = (1.0 if u[5] < 0.5 else -1.0) * 10.0 ** (12.0 * u[4] - 6.0)
            items.append((tb.BarrierParams(tc, beta, q, alpha), float(x0)))
        return items

    def call(self, item):
        p, x0 = item
        spec = tb.make_time_barrier_scalar(p, self.policy)
        traj = tb.simulate(spec, x0, p, self.policy)
        report = tb.settling_report(traj, p)
        cert = tb.check_dissipation(traj, p, self.policy)
        exact = [tb.exact_solution_scalar(p, x0, s.t) for s in traj.samples]
        text = tb_cli.render_trajectory_csv(traj)
        parsed = tb_cli.parse_trajectory_csv(text)
        return traj, report, cert, exact, parsed

    def check(self, item, out) -> Outcome:
        p, x0 = item
        traj, report, cert, exact, (header, rows) = out
        failures, wrong = _deadline_checks(report, traj)
        if not cert.passed:
            failures.append(f"certificate failed: {len(cert.violations)} violations")
        states = traj.states
        wrong += _oracle_failures(states, [x0], np.array(exact)[:, None], self.policy)
        expected = np.column_stack([traj.times, states, traj.v_values, traj.w_values])
        if header != ["t", "x_1", "V", "W"] or not np.array_equal(
            rows, expected, equal_nan=True
        ):
            wrong.append("trajectory CSV round trip is not exact")
        return _request_outcome(f"x0={x0!r} {p}", failures, wrong, _trajectory_work(traj))


class CustomDynamics:
    name = "custom_dynamics"
    why = (
        "componentwise law re-wrapped with vdot=None (finite-difference certificate "
        "reads the dense output); 1 in 3 requests has unequal magnitudes and chatters"
    )
    trace_ops = 30
    rate = 3.6  # requests per second
    params = tb.BarrierParams(1.0, 2.0, 1.0, 0.5)
    # largest |x_i| of a chattering vector is 10^U(-1.5, 0.5), where chattering
    # costs most and its cost changes least with the scale, and the smallest is
    # CHATTER_GAP below it. The cost grows in proportion to the gap: 0.1 takes
    # 2500-5000 steps, 0.5 ~26,000 (~6 s with the certificate) and a decade
    # ~20 s, which would leave a run too few requests for a steady tail. A
    # fixed gap leaves the scale as the only cost-setting input of a
    # chattering request, so a run's mix of costs hardly depends on its seed.
    # Equal-magnitude vectors span the same scales, so the two kinds of
    # request differ only in the gap.
    CHATTER_GAP = 0.1

    def __init__(self):
        self.policy = tb.NumericPolicy()

    def size(self, seconds: float) -> int:
        """A whole number of blocks of three."""
        return 3 * max(1, round(seconds * self.rate / 3))

    def inputs(self, seed: int, size: int) -> list:
        """Blocks of three requests, one per dim; the request of dim 2 has
        unequal magnitudes. Were the unequal dim to vary, the tail would fall
        on the edge between two groups of chattering costs."""
        # signs and orders come from a stream of their own, so a prefix of the
        # requests does not depend on ``size``
        rng = np.random.default_rng([seed, 1])
        items = []
        for u, m_a, m_b in kronecker(seed, size // 3, 3):
            top = 10.0 ** (-1.5 + 2.0 * u)
            for dim in rng.permutation([1, 2, 3]):
                if dim == 2:
                    mags = rng.permutation([top, top * (1.0 - self.CHATTER_GAP)])
                else:
                    m = m_a if dim == 1 else m_b
                    mags = np.full(dim, 10.0 ** (-1.5 + 2.0 * m))
                items.append(np.asarray(mags) * rng.choice([-1.0, 1.0], dim))
        return items

    @staticmethod
    def unequal(x0) -> bool:
        return bool(np.ptp(np.abs(x0)) > 0.0)

    def call(self, x0):
        p, dim = self.params, x0.size
        law = tb.make_time_barrier_componentwise(p, dim, self.policy)
        spec = tb.DynamicsSpec(
            dim=dim, rhs=law.rhs, label="user spec, vdot withheld", v=law.v,
            vdot=None, tc=law.tc,
        )
        traj = tb.simulate(spec, x0, p, self.policy)
        report = tb.settling_report(traj, p)
        cert = tb.check_dissipation(traj, p, self.policy)
        coords = x0.tolist()
        exact = [[tb.exact_solution_scalar(p, xi, s.t) for xi in coords] for s in traj.samples]
        return traj, report, cert, exact

    def check(self, x0, out) -> Outcome:
        traj, report, cert, exact = out
        failures, wrong = _deadline_checks(report, traj)
        if not (cert.admissibility.admissible and cert.w_monotone):
            failures.append("certificate: inadmissible or W not monotone")
        beyond_slack = [
            v for v in cert.violations if v.residual > FD_SLACK * (1.0 + abs(v.rhs_bound))
        ]
        if beyond_slack:
            failures.append(f"certificate: {len(beyond_slack)} violations beyond FD slack")
        wrong += _oracle_failures(traj.states, x0.tolist(), np.array(exact), self.policy)
        work = _trajectory_work(traj)
        work["fd_default_tol_violations"] = len(cert.violations)
        return _request_outcome(f"x0={x0.tolist()!r}", failures, wrong, work)


WORKLOADS = {w.name: w for w in (GridSweep, TrajectoryRoundtrip, CustomDynamics)}
