"""Microseconds per Dormand-Prince trial of the stepping loop, per path.

Run from the root of a checkout:

    python3 tools/trial_us.py [--repeat 20] [--src src]
    python3 tools/trial_us.py [--repeat 20] --src ../parent/src --src src

Each case is one run of the componentwise law at the default parameters
(tc=1, beta=2, q=1, alpha=0.5) with the default numeric policy. The stepping
loop alone (``integrate._step``, no record, sampling or certificate) is
timed with ``timeit``, one run per repeat, and the best repeat is divided by
the run's trials (accepted plus rejected steps), which one ``simulate`` of
the case reads from ``Trajectory.step_count`` and ``rejected_steps``. Every
case runs twice: with the law's own rhs, whose plain-float kernel the
stepper calls itself, and through the array contract, behind a
``functools.wraps`` wrapper. The per-coordinate hold probes the rhs on both
paths, so they do the same work; the wrapper copies the rhs's attributes,
so a tree older than the probe, which read the hold from an attribute of
the rhs, holds on both paths too. Both paths take the same unchecked trial:
the "array" one calls the wrapper through ``integrate._coerced_rhs``, which
reads each stage's value by ``core._value`` (its shape and real kind, float64
out) and, as on the kernel path, leaves its finiteness to the error norm.
The trial counts are printed next to the times, so a change
in speed can be told apart from a change in work: the script exits 1 when
a case's accepted/rejected counts, on either path, differ from the pinned
ones in ``CASES``.

Given ``--src`` twice, the script times two source trees, A and B, in one
process: B's package is imported under another name, the two trees take
turns repeat by repeat (the first to go alternating), and each case prints
both trees' best-repeat µs/trial and their ratio B/A. It also prints the
median and quartiles of the per-repeat ratios (B's time over A's time in
the same repeat), so the spread of the ratio shows in a single run. The
pinned counts are checked on both trees. A shared host's speed drifts
between runs minutes apart, so two separate runs of the script cannot show
a 20% per-trial change; the interleaved ratio can.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import importlib.util
import statistics
import sys
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# each case's start and its pinned (accepted, rejected) trial counts
CASES = (
    ([1.0], (171, 5)),
    ([1.0, 0.9], (198, 11)),
    ([1e3, 1e-3], (388, 9)),
    ([1.0, -0.9, 0.8], (226, 17)),
    ([1.0, -0.1, 1e-3], (307, 19)),
)
# the package name each tree is imported under
NAMES = ("timebarrier", "timebarrier_b")


def import_tree(src: Path, name: str):
    """The ``timebarrier`` package of the tree ``src``, imported as ``name``,
    and its ``integrate`` module."""
    package = src.resolve() / "timebarrier"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module, importlib.import_module(f"{name}.integrate")


def case_runs(tb, integrate, x0):
    """(path, (accepted, rejected), stepping-loop callable) of one case on
    one tree, kernel first."""
    p = tb.BarrierParams(1.0, 2.0, 1.0, 0.5)
    policy = tb.NumericPolicy()
    law = tb.make_time_barrier_componentwise(p, len(x0))
    wrapped = functools.wraps(law.rhs)(lambda x, t, rhs=law.rhs: rhs(x, t))
    for path, spec in (("kernel", law), ("array", dataclasses.replace(law, rhs=wrapped))):
        traj = tb.simulate(spec, x0, p, policy)
        policy_, x, tc, t_end = integrate._prepare(spec, x0, p, policy)
        yield (
            path,
            (traj.step_count, traj.rejected_steps),
            functools.partial(integrate._step, spec, x, tc, t_end, policy_),
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=20, help="timeit repeats per case")
    parser.add_argument(
        "--src", type=Path, action="append",
        help="library source tree; give it twice to time two trees interleaved "
        "(default: src)",
    )
    args = parser.parse_args(argv)
    srcs = args.src or [ROOT / "src"]
    if len(srcs) > 2:
        parser.error("--src takes at most two trees")
    trees = [import_tree(src, name) for src, name in zip(srcs, NAMES)]
    labels = "AB"[: len(trees)]
    if len(trees) == 2:
        for label, src in zip(labels, srcs):
            print(f"{label}: {src}")

    header = f"{'x0':<22} {'path':<8} {'accepted':>8} {'rejected':>8}"
    if len(trees) == 1:
        header += f" {'us/trial':>9}"
    else:
        header += f" {'us/trial A':>10} {'us/trial B':>10} {'B/A':>6} {'median B/A [q1, q3]':>21}"
    print(header)
    changed = []
    for x0, pinned in CASES:
        runs = [case_runs(tb, integrate, x0) for tb, integrate in trees]
        for paths in zip(*runs):
            path = paths[0][0]
            counts = [c for _, c, _ in paths]
            steppers = [run for _, _, run in paths]
            for label, count in zip(labels, counts):
                if count != pinned:
                    tree = f" tree {label}" if len(trees) == 2 else ""
                    changed.append(
                        f"{x0} {path}{tree}: {count[0]}/{count[1]}, "
                        f"pinned {pinned[0]}/{pinned[1]}"
                    )
            # the trees take turns, and the one to go first alternates
            times = [[] for _ in steppers]
            for r in range(args.repeat):
                order = range(len(steppers)) if r % 2 == 0 else reversed(range(len(steppers)))
                for i in order:
                    times[i].append(timeit.timeit(steppers[i], number=1))
            us = [1e6 * min(ts) / sum(c) for ts, c in zip(times, counts)]
            line = f"{str(x0):<22} {path:<8} {counts[0][0]:>8} {counts[0][1]:>8}"
            if len(trees) == 1:
                line += f" {us[0]:>9.2f}"
            else:
                ratios = [
                    (b / sum(counts[1])) / (a / sum(counts[0])) for a, b in zip(*times)
                ]
                q1, median, q3 = (
                    statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
                )
                line += (
                    f" {us[0]:>10.2f} {us[1]:>10.2f} {us[1] / us[0]:>6.3f}"
                    f" {median:>7.3f} [{q1:.3f}, {q3:.3f}]"
                )
            print(line)
    for line in changed:
        print(f"accepted/rejected changed: {line}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
