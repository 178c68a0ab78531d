"""Command-line front end: simulate | certify | sweep | bound | witness.

Outputs are offline-friendly: trajectory and sweep CSVs use shortest
round-trip decimal floats (17 significant digits), and every command prints a
line-oriented ``key=value`` report block next to the human-readable text.
Exit codes partition outcomes: 0 success, 1 validation/config error,
2 numerical failure (stall or blow-up), 3 property failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import re
import sys
from itertools import chain, repeat
from typing import NamedTuple, Optional

import numpy as np

from .analytic import settling_bound
from .certify import check_dissipation, find_nonautonomy_witness
from .core import (
    BarrierParams,
    BlowUpError,
    NumericPolicy,
    StallError,
    TimeBarrierError,
    _check_law,
    validate_params,
)
from .integrate import Trajectory, settling_report, simulate
from .sweep import SweepConfig, SweepResult, SweepRow, _check_x0_decades, run_sweep
from .systems import make_time_barrier_componentwise, make_time_barrier_scalar

__all__ = ["main", "entry", "render_trajectory_csv", "parse_trajectory_csv", "render_sweep_csv"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_PROPERTY = 3


# ----------------------------------------------------------------- formatting

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _v_cells(v: np.ndarray, states: np.ndarray, state_cells: list) -> list:
    """V's CSV cells, reusing the digits of the state cells (row-major).

    Where V equals the largest |x_i| of its row and its sign bit is clear,
    its cell is that coordinate's cell without the leading ``-``, since
    ``repr(-y) == '-' + repr(y)``; this holds at every sample of every
    built-in law (V = max_i |x_i|). Any other V (a user V, NaN, ``-0.0``)
    goes through ``repr``.
    """
    n, dim = states.shape
    mag = np.abs(states)
    top = mag.argmax(axis=1)
    rows = np.arange(n)
    reuse = (v == mag[rows, top]) & ~np.signbit(v)
    picked = (rows * dim + top)[reuse].tolist()
    cells = list(map(str.removeprefix, map(state_cells.__getitem__, picked), repeat("-")))
    if len(cells) == n:
        return cells
    # each row takes the next cell of its source: fresh (False) or reused (True)
    sources = (map(repr, v[~reuse].tolist()), iter(cells))
    return list(map(next, map(sources.__getitem__, reuse.tolist())))


def render_trajectory_csv(traj: Trajectory) -> str:
    """CSV with header t,x_1..x_n,V,W; floats round-trip exactly.

    Each column is formatted in one ``map(repr, ...)`` pass and the rows are
    joined by a C-level ``map(",".join, zip(*columns))``. V's digits are
    reused from the state cells where V is the largest |x_i| (see
    :func:`_v_cells`), so a built-in law's V costs no ``repr``.
    """
    dim = traj.spec.dim
    header = ["t"] + [f"x_{i + 1}" for i in range(dim)] + ["V", "W"]
    states = traj.states
    state_cells = list(map(repr, states.ravel().tolist()))
    columns = [
        map(repr, traj.times.tolist()),
        *(state_cells[k::dim] for k in range(dim)),
        _v_cells(traj.v_values, states, state_cells),
        map(repr, traj.w_values.tolist()),
    ]
    return "\n".join(chain([",".join(header)], map(",".join, zip(*columns)))) + "\n"


def parse_trajectory_csv(text: str):
    """Inverse of :func:`render_trajectory_csv`; returns (header, rows array).

    A row whose cell count differs from the header's raises ``ValueError``
    naming its line. The body is then converted in one numeric scan,
    ``numpy.loadtxt(lines, delimiter=",", comments=None)``, whose parser
    gives the bits of Python's ``float`` and rejects what ``float`` rejects,
    except that it also rejects ``1_0`` and non-ASCII digits and reads the
    unit separator U+001F as a blank. Where the scan raises, returns another
    number of cells, or the text holds a U+001F, all cells go through one
    ``numpy.array(cells, dtype=float)`` call, whose string parser gives
    ``float``'s bits (``nan``, ``inf``, ``-0.0`` and subnormals included) and
    raises ``float``'s ``ValueError`` text on a cell that is not a number.
    """
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError("trajectory text has no header line")
    header = lines[0].split(",")
    width = len(header)
    body = lines[1:]
    if set(map(str.count, body, repeat(","))) - {width - 1}:
        number, line = next(
            (n, ln) for n, ln in enumerate(text.splitlines(), 1)
            if ln and ln.count(",") + 1 != width
        )
        raise ValueError(
            f"line {number} has {line.count(',') + 1} cells, the header {width}: {line!r}"
        )
    rows = None
    if body and "\x1f" not in text:
        try:
            rows = np.loadtxt(body, delimiter=",", comments=None)
        except ValueError:
            pass
    if rows is None or rows.size != len(body) * width:
        # the check above leaves exactly len(body) * width cells
        cells = ",".join(body).split(",") if body else []
        rows = np.array(cells, dtype=float)
    return header, rows.reshape(len(body), width)


def render_sweep_csv(result: SweepResult) -> str:
    """One column per :class:`SweepRow` field; cells that need it are quoted."""
    columns = [f.name for f in dataclasses.fields(SweepRow)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in result.rows:
        writer.writerow(
            row.error if col == "error" else _fmt(getattr(row, col)) for col in columns
        )
    return buf.getvalue()


def _print_block(pairs) -> None:
    for key, value in pairs:
        print(f"{key}={_fmt(value)}")


# -------------------------------------------------------------------- config

_NUMBER = ((int, float), "a number")
_PATH = ((str,), "a path string")


class _Setting(NamedTuple):
    """A setting with the flag ``--<name>`` and the key ``<section>.<name>``."""

    section: Optional[str]  # None: a flag only
    types: tuple  # the value's JSON types and their name; with str, the flag's text as is
    default: object
    help: str
    commands: tuple


_LAW = ("simulate", "certify", "bound", "witness")

# name -> setting; the parser, the params and simulate sections of the
# schema and _resolve all read this table
_SETTINGS = {
    "tc": _Setting("params", _NUMBER, 1.0, "convergence deadline, > 0", _LAW),
    "beta": _Setting("params", _NUMBER, 2.0, "barrier exponent, >= 0", _LAW),
    "q": _Setting("params", _NUMBER, 1.0, "decay gain, >= 0", _LAW),
    "alpha": _Setting("params", _NUMBER, 0.5, "decay exponent in (0,1)", _LAW),
    "x0": _Setting(
        "simulate", ((int, float, str), "a number or a string of comma-separated numbers"),
        "1.0", "initial state, scalar or comma-separated vector", ("simulate", "certify", "bound"),
    ),
    "bias": _Setting(
        "simulate", _NUMBER, 0.0, "additive bias injected into the dynamics",
        ("simulate", "certify"),
    ),
    "vlevel": _Setting(None, _NUMBER, 0.25, "Lyapunov level to probe, > 0", ("witness",)),
    "t1": _Setting(None, _NUMBER, 0.0, "first probe time", ("witness",)),
    "t2": _Setting(None, _NUMBER, 0.5, "second probe time", ("witness",)),
}

# section -> key -> (accepted JSON types, their name); None leaves the
# value's check to the section's own reader
_SCHEMA = {
    "params": {name: s.types for name, s in _SETTINGS.items() if s.section == "params"},
    "policy": {
        **dict.fromkeys((f.name for f in dataclasses.fields(NumericPolicy)), _NUMBER),
        "delta_end": ((int, float, type(None)), "a number or null"),
    },
    "simulate": {name: s.types for name, s in _SETTINGS.items() if s.section == "simulate"},
    "sweep": dict.fromkeys(("tc", "beta", "q", "alpha", "x0_decades", "seed")),
    "output": dict.fromkeys(("trajectory", "report", "sweep"), _PATH),
}


def load_config(path: Optional[str]) -> dict:
    """Strict JSON config: unknown sections or keys, and values of the wrong
    JSON type, are rejected by name."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError("config root must be an object of sections")
    for section, content in data.items():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config key: {section}")
        if not isinstance(content, dict):
            raise ValueError(f"config section {section!r} must be an object")
        for key, value in content.items():
            if key not in _SCHEMA[section]:
                raise ValueError(f"unknown config key: {section}.{key}")
            expected = _SCHEMA[section][key]
            # JSON true and false are ints to isinstance
            if expected and (isinstance(value, bool) or not isinstance(value, expected[0])):
                raise ValueError(
                    f"invalid {section}.{key}: expected {expected[1]}, got {json.dumps(value)}"
                )
            # a JSON integer past the float range fails float() by OverflowError
            if expected and float in expected[0] and isinstance(value, int):
                try:
                    float(value)
                except OverflowError as exc:
                    raise ValueError(f"invalid {section}.{key}: {exc}") from exc
    return data


def _resolve(args, config: dict, name: str, convert=float):
    """A setting's value through ``convert``: the flag wins over the config
    key, which wins over the default. A value ``convert`` rejects is named
    by where it came from, ``--x0`` or ``simulate.x0``."""
    setting = _SETTINGS[name]
    value, source = getattr(args, name), f"--{name}"
    if value is None:
        value = config.get(setting.section, {}).get(name, setting.default)
        source = f"{setting.section}.{name}"
    try:
        return convert(value)
    except ValueError as exc:
        raise ValueError(f"invalid {source} value {value!r}") from exc


def _policy_from_config(config: dict, tc: Optional[float] = None) -> NumericPolicy:
    """The config's policy; with ``tc``, a configured delta_end must lie below it."""
    section = config.get("policy", {})
    for key, value in section.items():  # each field is checked alone
        try:
            alone = NumericPolicy(**{key: value})
            if key == "delta_end" and tc is not None:
                alone.resolve_delta_end(tc)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"invalid policy.{key}: {exc}") from exc
    return NumericPolicy(**section)


def _params_from(args, config: dict) -> BarrierParams:
    """The law's parameters from the flags and the config, checked as the law checks them."""
    p = BarrierParams(**{
        name: _resolve(args, config, name)
        for name, setting in _SETTINGS.items() if setting.section == "params"
    })
    _check_law(p)
    return p


def _vector(text) -> np.ndarray:
    return np.array([float(part) for part in str(text).split(",")])


def _law_for(x0: np.ndarray, p: BarrierParams, bias: float = 0.0):
    """The built-in law of ``x0``'s dimension: the scalar law for one value,
    the componentwise law for a vector. Only the scalar law takes a bias."""
    if x0.size == 1:
        return make_time_barrier_scalar(p, bias=bias)
    if bias:
        raise ValueError(
            f"bias {bias!r} (--bias or simulate.bias) applies to a scalar --x0 only, "
            f"got {x0.size} values"
        )
    return make_time_barrier_componentwise(p, x0.size)


# ------------------------------------------------------------------ commands

def _trajectory(args, config: dict, p: BarrierParams):
    """The run of the built-in law that ``simulate`` and ``certify`` report on."""
    policy = _policy_from_config(config, p.tc)
    bias = _resolve(args, config, "bias")
    x0 = _resolve(args, config, "x0", _vector)
    return simulate(_law_for(x0, p, bias), x0, p, policy)


def _cmd_simulate(args, config: dict) -> int:
    p = _params_from(args, config)
    traj = _trajectory(args, config, p)
    report = settling_report(traj, p)

    out_path = args.out or config.get("output", {}).get("trajectory")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(render_trajectory_csv(traj))
        if not args.quiet:
            print(f"trajectory written to {out_path} ({traj.times.size} samples)")

    keys = ("converged_at", "tau_bound", "deadline_pass")
    _print_block((key, getattr(report, key)) for key in keys)
    if not args.quiet:
        verdict = "PASS" if report.deadline_pass else "FAIL"
        print(f"deadline check: {verdict} (deadline tc={_fmt(p.tc)})")
    return EXIT_OK if report.deadline_pass else EXIT_PROPERTY


def _cmd_certify(args, config: dict) -> int:
    p = _params_from(args, config)
    verdict = validate_params(p)
    if not verdict.admissible:
        raise ValueError(f"inadmissible parameters: {verdict.reason}")
    traj = _trajectory(args, config, p)
    report = check_dissipation(traj, p)

    pairs = [
        ("violations", len(report.violations)),
        ("max_residual", report.max_residual),
        ("w_monotone", report.w_monotone),
        ("converged_at", traj.converged_at),
    ]
    _print_block(pairs)
    out_path = args.out or config.get("output", {}).get("report")
    if out_path:
        lines = [f"{k}={_fmt(v)}" for k, v in pairs]
        lines += [
            f"violation={_fmt(v.t)},{_fmt(v.v)},{_fmt(v.lhs)},{_fmt(v.rhs_bound)},{_fmt(v.residual)}"
            for v in report.violations
        ]
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    if not args.quiet:
        failed = [
            part for part, bad in (
                ("violations", report.violations),
                ("W rise", not report.w_monotone),
            ) if bad
        ]
        state = f"FAIL on {', '.join(failed)}" if failed else "PASS"
        print(
            f"dissipation certificate: {state} "
            f"({len(report.violations)} violations over {report.checked_samples} samples)"
        )
    return EXIT_OK if report.passed else EXIT_PROPERTY


def _sweep_config_from(config: dict) -> SweepConfig:
    kwargs = {}
    for key, value in config.get("sweep", {}).items():
        try:
            if key == "seed":
                kwargs["seed"] = int(value)
            elif not isinstance(value, list):
                raise TypeError(f"expected a list, got {type(value).__name__}")
            elif key == "x0_decades":
                lo, hi = value
                kwargs[key] = (int(lo), int(hi))
                _check_x0_decades(*kwargs[key])
            else:
                kwargs[f"{key}_values"] = tuple(float(v) for v in value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"invalid sweep.{key}: {exc}") from exc
    try:
        return SweepConfig(**kwargs)
    except ValueError as exc:
        raise ValueError(f"invalid sweep config: {exc}") from exc


def _cmd_sweep(args, config: dict) -> int:
    cfg = _sweep_config_from(config)
    policy = _policy_from_config(config, min(cfg.tc_values))
    result = run_sweep(cfg, policy)
    out_path = args.out or config.get("output", {}).get("sweep", "sweep.csv")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(render_sweep_csv(result))
    summary = result.summary
    _print_block(sorted(summary.items()))
    if not args.quiet:
        print(f"sweep written to {out_path} ({summary['rows']} rows)")
        print(
            f"deadline failures: {summary['deadline_failures']} "
            f"(inadmissible rows excluded: {summary['inadmissible_rows']})"
        )
    return EXIT_OK if summary["check_failures"] == 0 else EXIT_PROPERTY


def _cmd_bound(args, config: dict) -> int:
    p = _params_from(args, config)
    x0 = _resolve(args, config, "x0", _vector)
    v0 = float(np.max(np.abs(x0)))
    sb = settling_bound(p, v0)
    _print_block(
        [("tau_bound", sb.tau_bound), ("reaches_zero", sb.reaches_zero), ("v0", sb.v0)]
    )
    if not args.quiet:
        print(f"settling bound for v0={_fmt(v0)}: {_fmt(sb.tau_bound)} (deadline {_fmt(p.tc)})")
    return EXIT_OK


def _cmd_witness(args, config: dict) -> int:
    p = _params_from(args, config)
    witness = find_nonautonomy_witness(
        p, *(_resolve(args, config, name) for name in ("vlevel", "t1", "t2"))
    )
    _print_block(
        (key, getattr(witness, key)) for key in ("v_level", "t1", "t2", "vdot1", "vdot2", "gap")
    )
    if not args.quiet:
        note = witness.note or "decay rate depends on time at a fixed level"
        print(f"witness: {note}")
    return EXIT_OK


# -------------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """argparse exits usage errors with code 2; here that code means a
    numerical failure, so flag mistakes are validation errors instead."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes -1e3, -1,2 and -inf for flags; no flag here starts as they do
        self._negative_number_matcher = re.compile(r"-(\d|\.|inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


# the options every command takes, before or after the command's name
_GLOBALS = {
    "--config": dict(metavar="PATH", default=None,
                     help="JSON config file with strict keys (default: none)"),
    "--out": dict(metavar="PATH", default=None,
                  help="output file path (default: command-specific)"),
    "--quiet": dict(action="store_true", default=False,
                    help="suppress human-readable text, keep key=value lines (default: off)"),
}

_COMMANDS = {
    "simulate": (_cmd_simulate, "integrate the decay law and report settling"),
    "certify": (_cmd_certify, "check the dissipation inequality along a trajectory"),
    "sweep": (_cmd_sweep, "run a parameter/initial-condition grid with checks"),
    "bound": (_cmd_bound, "print the analytic settling bound"),
    "witness": (_cmd_witness, "show the decay rate at one level and two times"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="timebarrier",
        description="Simulate, certify, and stress-test decay laws with a hard convergence deadline.",
    )
    # SUPPRESS keeps a subparser from clobbering a global parsed before it
    shared = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in _GLOBALS.items():
        parser.add_argument(flag, **kwargs)
        shared.add_argument(flag, **{**kwargs, "default": argparse.SUPPRESS})
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for command, (func, text) in _COMMANDS.items():
        sp = sub.add_parser(command, parents=[shared], help=text)
        for name, s in _SETTINGS.items():
            if command in s.commands:
                sp.add_argument(f"--{name}", type=str if str in s.types[0] else float,
                                default=None, help=f"{s.help} (default: {s.default})")
        sp.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    """Run one command; always returns an exit code in {0, 1, 2, 3}."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help (0) or a usage error (1)
        return int(exc.code or 0)
    try:
        config = load_config(args.config)
        return args.func(args, config)
    except (StallError, BlowUpError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, TimeBarrierError, OSError) as exc:
        # an OSError is an output path that cannot be written; its text names it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
