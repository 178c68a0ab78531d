"""Microseconds per Dormand-Prince trial of the stepping loop, per path.

Run from the root of a checkout:

    python3 tools/trial_us.py [--repeat 20] [--src src]

Each case is one run of the componentwise law at the default parameters
(tc=1, beta=2, q=1, alpha=0.5) with the default numeric policy. The stepping
loop alone (``integrate._step``, no record, sampling or certificate) is
timed with ``timeit``, one run per repeat, and the best repeat is divided by
the run's trials (accepted plus rejected steps). Every case runs twice: with
the law's own rhs, whose plain-float kernel the stepper calls itself, and
through the array contract, behind a ``functools.wraps`` wrapper that keeps
the per-coordinate hold and so does the same work. The trial counts are
printed next to the times, so a change in speed can be told apart from a
change in work: the script exits 1 when a case's accepted/rejected counts,
on either path, differ from the pinned ones in ``CASES``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=20, help="timeit repeats per case")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="library source tree")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    import timebarrier as tb
    from timebarrier import integrate

    p = tb.BarrierParams(1.0, 2.0, 1.0, 0.5)
    policy = tb.NumericPolicy()
    print(f"{'x0':<22} {'path':<8} {'accepted':>8} {'rejected':>8} {'us/trial':>9}")
    changed = []
    for x0, pinned in CASES:
        law = tb.make_time_barrier_componentwise(p, len(x0), policy)
        wrapped = functools.wraps(law.rhs)(lambda x, t, rhs=law.rhs: rhs(x, t))
        for path, spec in (("kernel", law), ("array", dataclasses.replace(law, rhs=wrapped))):
            policy_, x, tc, t_end = integrate._prepare(spec, x0, p, policy)

            def run():
                return integrate._step(spec, x, tc, t_end, policy_)

            steps = run()
            counts = (len(steps.t0), steps.rejected)
            if counts != pinned:
                changed.append(
                    f"{x0} {path}: {counts[0]}/{counts[1]}, pinned {pinned[0]}/{pinned[1]}"
                )
            trials = sum(counts)
            best = min(timeit.repeat(run, number=1, repeat=args.repeat))
            print(
                f"{str(x0):<22} {path:<8} {len(steps.t0):>8} {steps.rejected:>8} "
                f"{1e6 * best / trials:>9.2f}"
            )
    for line in changed:
        print(f"accepted/rejected changed: {line}", file=sys.stderr)
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
