"""Command-line surface: flags, exit codes, CSV round-trips, report blocks."""

import argparse
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import warnings
from itertools import product, repeat
from pathlib import Path

import numpy as np
import pytest

from timebarrier import cli
from timebarrier.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_PROPERTY,
    EXIT_VALIDATION,
    build_parser,
    main,
    parse_trajectory_csv,
    render_trajectory_csv,
)

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def block_of(out):
    pairs = {}
    for line in out.splitlines():
        if "=" in line and " " not in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            pairs[key] = value
    return pairs


def test_simulate_pass(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "--out", str(out_file), "simulate",
        "--tc", "1", "--beta", "2", "--q", "1", "--alpha", "0.5", "--x0", "1",
    )
    assert code == EXIT_OK
    block = block_of(out)
    assert float(block["converged_at"]) == pytest.approx(0.8646647167633873, abs=1e-4)
    assert float(block["tau_bound"]) == pytest.approx(0.8646647167633873, abs=1e-12)
    assert block["deadline_pass"] == "true"
    assert "PASS" in out
    assert out_file.exists()


def test_simulate_vector_meets_its_deadline(capsys):
    code, out, _ = run_cli(capsys, "--quiet", "simulate", "--x0", "1000,0.001")
    assert code == EXIT_OK
    assert block_of(out)["deadline_pass"] == "true"


def test_w_past_the_float_range_raises_no_warning(capsys):
    # W = x0/(tc-t)**8 is past the float range at every sample: inf, with no
    # RuntimeWarning. The verdict is not pinned: the closed form reaches zero
    # before tc, yet the run exits 3
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, _ = run_cli(
            capsys, "simulate", "--tc", "0.01", "--beta", "8", "--q", "1", "--x0", "1e300"
        )
    assert code in (EXIT_OK, EXIT_PROPERTY)


def test_crossing_whose_closed_form_never_reaches_zero_fails(capsys):
    # m = 0.4 < 1 and x0 past the finite-integral threshold: the run crosses
    # eps_conv, but the closed form from there never reaches zero
    argv = ("--tc", "1", "--beta", "2", "--q", "1", "--alpha", "0.8", "--x0", "304")
    code, out, _ = run_cli(capsys, "simulate", *argv)
    assert code == EXIT_PROPERTY
    block = block_of(out)
    assert block["converged_at"] == ""
    assert block["deadline_pass"] == "false"
    assert "PASS" not in out
    code, out, _ = run_cli(capsys, "bound", *argv)
    assert code == EXIT_OK and block_of(out)["reaches_zero"] == "false"


def test_simulate_zero_start(capsys):
    code, out, _ = run_cli(capsys, "simulate", "--x0", "0")
    assert code == EXIT_OK
    assert float(block_of(out)["converged_at"]) == 0.0


def test_simulate_validation_error(capsys):
    code, out, err = run_cli(capsys, "simulate", "--alpha", "1.5")
    assert code == EXIT_VALIDATION
    assert "alpha in (0,1)" in err


def test_trajectory_csv_round_trip(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, out, _ = run_cli(capsys, "--quiet", "--out", str(out_file), "simulate")
    assert code == EXIT_OK
    text = out_file.read_text()
    header, rows = parse_trajectory_csv(text)
    assert header == ["t", "x_1", "V", "W"]
    assert rows.shape[0] >= 512
    # re-render one cell through repr and compare: full 17-digit round trip
    from timebarrier.cli import _fmt

    for i in (0, 5, 100, -1):
        for j in range(rows.shape[1]):
            cell = text.splitlines()[1 + (i % (rows.shape[0]))].split(",")[j]
            value = float(cell)
            assert _fmt(value) == cell or cell == "nan"


def test_ragged_trajectory_csv_names_its_line():
    # 3 + 5 cells: a bare reshape would silently make two wrong 4-cell rows
    text = "t,x_1,V,W\n0.0,1.0,1.0,1.0\n\n0.5,0.25,0.25\n0.6,0.2,0.2,1.0,9.0\n"
    with pytest.raises(ValueError, match="line 4 has 3 cells, the header 4"):
        parse_trajectory_csv(text)
    with pytest.raises(ValueError, match="line 5 has 5 cells, the header 4"):
        parse_trajectory_csv(text.replace("0.5,0.25,0.25\n", "0.5,0.25,0.25,1.0\n"))
    header, rows = parse_trajectory_csv(text.replace(",9.0", "").replace(",0.25\n", ",0.25,1.0\n"))
    assert header == ["t", "x_1", "V", "W"]
    assert rows.tolist() == [[0.0, 1.0, 1.0, 1.0], [0.5, 0.25, 0.25, 1.0], [0.6, 0.2, 0.2, 1.0]]


def test_trajectory_csv_special_cells_round_trip_bit_for_bit():
    values = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1e-310, -2.5]
    text = "t,x_1,V,W\n" + "".join(
        ",".join(map(repr, values[i:i + 4])) + "\n" for i in range(0, len(values), 4)
    )
    assert "nan" in text and "-0.0" in text and "5e-324" in text
    header, rows = parse_trajectory_csv(text)
    assert header == ["t", "x_1", "V", "W"]
    assert rows.tobytes() == np.array(values).reshape(-1, 4).tobytes()
    header, rows = parse_trajectory_csv("t,x_1,V,W\n")
    assert rows.shape == (0, 4)


def reference_render(traj):
    """The per-row renderer the column-pass one replaced, kept as the oracle."""
    dim = traj.spec.dim
    header = ["t"] + [f"x_{i + 1}" for i in range(dim)] + ["V", "W"]
    table = np.column_stack([traj.times, traj.states, traj.v_values, traj.w_values])
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in table.tolist())
    return "\n".join(lines) + "\n"


def reference_parse(text):
    """The parser the one-scan one replaced, kept as the oracle."""
    lines = [ln for ln in text.splitlines() if ln]
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
    # the check above leaves exactly len(body) * width cells
    cells = ",".join(body).split(",") if body else []
    rows = np.array(cells, dtype=float)
    return header, rows.reshape(len(body), width)


def _user_v(x, t):
    # -0.0 at the origin; elsewhere |x| and 2|x| alternate in time, so V's
    # reused and freshly formatted cells interleave
    a = abs(float(x[0]))
    return -0.0 if a == 0.0 else (a if int(t * 1000.0) % 2 else 2.0 * a)


def _csv_case(name):
    from timebarrier import BarrierParams, DynamicsSpec, NumericPolicy, simulate
    from timebarrier.systems import make_time_barrier_componentwise

    policy = NumericPolicy()
    p = BarrierParams(1.0, 2.0, 1.0, 0.5)
    law = make_time_barrier_componentwise(p, 1, policy)
    if name.startswith("dim"):
        # the largest |x_i| negative, then tied between signs
        x0 = {"dim1": [-1.0], "dim2": [-1.0, 0.9], "dim3": [-1.0, 1.0, 0.5]}[name]
        return simulate(make_time_barrier_componentwise(p, len(x0), policy), x0, p, policy)
    if name == "rotating":
        # the largest coordinate and its sign change along the run
        spec = DynamicsSpec(
            dim=2, rhs=lambda x, t: 10.0 * np.array([-x[1], x[0]]),
            v=lambda x, t: float(np.max(np.abs(x))), tc=p.tc,
        )
        return simulate(spec, [1.0, 0.0], p, policy)
    if name == "user V":
        return simulate(DynamicsSpec(dim=1, rhs=law.rhs, v=_user_v, tc=p.tc), -1.0, p, policy)
    if name == "no V":
        return simulate(DynamicsSpec(dim=1, rhs=law.rhs, tc=p.tc), 1.0, p, policy)
    # W = x0 / tc**8 overflows to inf at every sample
    p = BarrierParams(0.01, 8.0, 1.0, 0.5)
    return simulate(make_time_barrier_componentwise(p, 1, policy), -1e300, p, policy)


@pytest.mark.parametrize("name", ["dim1", "dim2", "dim3", "rotating", "user V", "no V", "inf W"])
def test_trajectory_csv_matches_the_reference_render(name):
    traj = _csv_case(name)
    text = render_trajectory_csv(traj)
    assert text == reference_render(traj)
    header, rows = parse_trajectory_csv(text)
    want_header, want = reference_parse(text)
    assert header == want_header
    assert rows.tobytes() == want.tobytes()
    if name == "user V":
        cells = [ln.split(",")[2] for ln in text.splitlines()[1:]]
        assert "-0.0" in cells and len(set(cells)) > 2
    if name == "inf W":
        assert np.all(np.isinf(traj.w_values))


@pytest.mark.parametrize("x0, digest", [
    ("-1000", "e0dbd2df07459034c4992dff86ea25d6a8ed5c88b87a98746a3d2e54104e7cb6"),
    ("1000,-0.001,1e-6", "89273f84941585a3971dc8a0c98554bdbe5dc2c09f25a54a7714d89711ce1ea0"),
])
def test_cli_trajectory_csv_bytes_are_pinned(tmp_path, capsys, x0, digest):
    out_file = tmp_path / "t.csv"
    code, out, _ = run_cli(capsys, "--quiet", "--out", str(out_file), "simulate", "--x0", x0)
    assert code == EXIT_OK
    assert block_of(out)["deadline_pass"] == "true"
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


# cells that numpy's other text readers (loadtxt, with its default comment
# "#" or without it, and fromstring) read otherwise than float() does, each
# tried alone in each column of an otherwise valid body, then random cells of
# number syntax: each joins up to four pieces, one character or one word
_DISAGREEING_CELLS = [
    "nan(1)", "-nan", "-NaN", " ", "\t", "\x1f1", "1\x1f", "1#", "1_0", "\xa01", "\u0661\u0662",
    " -1 ",
]
_CELL_PIECES = list("0123456789.+-eEinfatyINFATY_() \xa0\u0661\x1f") + ["nan", "NaN", "inf", "infinity"]


def _outcome(parse, text):
    try:
        header, rows = parse(text)
    except ValueError as exc:
        return "error", str(exc)
    return header, rows.shape, rows.tobytes()


def test_parse_matches_the_reference_on_random_cells():
    for cell, column in product(_DISAGREEING_CELLS, range(4)):
        row = ["0.5", "0.25", "0.25", "1.0"]
        row[column] = cell
        text = "t,x_1,V,W\n0.0,1.0,1.0,1.0\n" + ",".join(row) + "\n"
        assert _outcome(parse_trajectory_csv, text) == _outcome(reference_parse, text), text
    rng = random.Random(20)
    for _ in range(3000):
        rows = []
        for _ in range(rng.randrange(4)):
            cells = [
                "".join(rng.choice(_CELL_PIECES) for _ in range(rng.randrange(5)))
                if rng.random() < 0.4 else repr(rng.uniform(-5.0, 5.0))
                for _ in range(4)
            ]
            rows.append(",".join(cells))
        text = "t,x_1,V,W\n" + "".join(row + "\n" for row in rows)
        assert _outcome(parse_trajectory_csv, text) == _outcome(reference_parse, text), text


@pytest.mark.parametrize("cell", ["abc", "", "1.0x", "0x10", "nan(1)"])
def test_non_numeric_csv_cell_raises_the_float_text(cell):
    try:
        float(cell)
    except ValueError as exc:
        want = str(exc)
    with pytest.raises(ValueError) as raised:
        parse_trajectory_csv(f"t,x_1,V,W\n0.0,1.0,1.0,1.0\n0.5,{cell},0.25,1.0\n")
    assert str(raised.value) == want


def test_vector_initial_condition_csv(tmp_path, capsys):
    out_file = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "--quiet", "--out", str(out_file), "simulate", "--x0", "1.0,0.5"
    )
    assert code == EXIT_OK
    header, rows = parse_trajectory_csv(out_file.read_text())
    assert header == ["t", "x_1", "x_2", "V", "W"]


@pytest.mark.parametrize("argv", [[], ["--x0", "1000,-0.001,1e-6"]], ids=["default", "dim3"])
def test_certify_clean(capsys, argv):
    code, out, _ = run_cli(capsys, "certify", *argv)
    assert code == EXIT_OK
    block = block_of(out)
    assert block["violations"] == "0"
    assert block["max_residual"] == "0.0"
    assert block["w_monotone"] == "true"


def test_certify_with_every_w_past_the_float_range_passes(capsys):
    # W's rise is decided on log W, so a W that is inf at every sample rises nowhere
    code, out, _ = run_cli(
        capsys, "certify", "--tc", "0.01", "--beta", "8", "--q", "1", "--x0", "1e300"
    )
    assert code == EXIT_OK
    block = block_of(out)
    assert block["violations"] == "0"
    assert block["w_monotone"] == "true"


def test_certify_bias_fails(tmp_path, capsys):
    report_file = tmp_path / "report.txt"
    code, out, _ = run_cli(
        capsys, "--out", str(report_file), "certify", "--bias", "0.1"
    )
    # the field breaks the bound at every checked sample; the law states no dV/dt, so
    # the residual is the difference quotient of V along the rhs, rounding included
    assert code == EXIT_PROPERTY
    block = block_of(out)
    assert block["violations"] == "763"
    assert block["max_residual"] == "0.1000000006688242"
    assert block["w_monotone"] == "false"
    lines = report_file.read_text().splitlines()
    assert any(line.startswith("violation=") for line in lines)
    assert "dissipation certificate: FAIL on violations, W rise (" in out


def test_certify_w_rise_within_the_steppers_error_passes(capsys):
    # the recorded W rises within the error the policy allows V near the deadline
    code, out, _ = run_cli(
        capsys, "certify", "--tc", "0.04031724876301517", "--beta", "1.9578877508340107",
        "--q", "0.07073930739948414", "--alpha", "0.270928266097243", "--x0", "80529864.0265144",
    )
    assert code == EXIT_OK
    assert block_of(out)["w_monotone"] == "true"
    assert "dissipation certificate: PASS (0 violations over 1043 samples)" in out


def test_certify_vector_initial_condition(capsys):
    code, out, _ = run_cli(capsys, "certify", "--x0", "1,0.5")
    assert code == EXIT_OK
    assert block_of(out)["violations"] == "0"


def test_certify_vector_with_bias_is_a_validation_error(capsys):
    code, _, err = run_cli(capsys, "certify", "--x0", "1,0.5", "--bias", "0.1")
    assert code == EXIT_VALIDATION
    assert "--bias" in err


def test_certify_inadmissible_params(capsys):
    code, out, err = run_cli(capsys, "certify", "--beta", "1", "--alpha", "0.5")
    assert code == EXIT_VALIDATION
    assert "beta*(1-alpha)=0.5 < 1" in err


def test_witness_values(capsys):
    code, out, err = run_cli(
        capsys, "witness", "--vlevel", "0.25", "--t1", "0", "--t2", "0.5"
    )
    assert code == EXIT_OK
    block = block_of(out)
    assert float(block["vdot1"]) == -1.0
    assert float(block["vdot2"]) == -1.5
    assert block["gap"] == "0.5"
    # those are the defaults
    assert run_cli(capsys, "witness") == (code, out, err)


def test_witness_near_deadline_gap(capsys):
    code, out, _ = run_cli(capsys, "witness", "--t2", "0.999999999")
    assert code == EXIT_OK
    assert float(block_of(out)["gap"]) > 1e6


def test_witness_equal_times(capsys):
    code, out, err = run_cli(capsys, "witness", "--t1", "0.3", "--t2", "0.3")
    assert code == EXIT_VALIDATION
    assert "t1 must differ from t2" in err


def test_witness_out_of_range(capsys):
    code, out, err = run_cli(capsys, "witness", "--t2", "1.5")
    assert code == EXIT_VALIDATION


@pytest.mark.parametrize(
    "argv, text",
    [
        (["bound", "--alpha", "1.5"], "alpha in (0,1) violated"),
        (["witness", "--beta", "nan"], "non-finite parameter: beta"),
        (["witness", "--t1", "0.5", "--t2", "0.2"], "t1 must be < t2, got t1=0.5, t2=0.2"),
        (["witness", "--t2", "1.5"], "t=1.5 outside [0, tc=1.0)"),
    ],
    ids=["bound_alpha", "witness_nan_beta", "witness_order", "witness_past_tc"],
)
def test_input_outside_the_domain_is_named(capsys, argv, text):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_VALIDATION
    assert err == f"error: {text}\n"
    assert out == ""


def test_bound_command(capsys):
    code, out, _ = run_cli(capsys, "bound", "--x0", "1")
    assert code == EXIT_OK
    block = block_of(out)
    assert float(block["tau_bound"]) == pytest.approx(0.8646647167633873, abs=1e-12)
    assert block["reaches_zero"] == "true"


@pytest.mark.parametrize(
    "argv, lines",
    [
        # log A between log(max float) and 710: log1p(g) is taken as log g
        (["--beta", "4", "--q", "1e-300", "--x0", "1.0215165681210286e16"],
         {"reaches_zero": "true"}),
        # with m = 99 that log g puts the crossing before tc: the 60-digit zero
        (["--tc", "1", "--beta", "200", "--q", "1e-300", "--alpha", "0.5", "--x0", "1e300"],
         {"tau_bound": "0.9999730010536269", "reaches_zero": "true"}),
        # q*(1-alpha)*tc underflows to 0: its log is taken by its factors'
        (["--tc", "1e-30", "--q", "1e-300", "--x0", "1"], {"reaches_zero": "true"}),
        # A = 2e-600 is below the float range: tau = tc*A, 2e-300 to 3e-14 relative
        (["--tc", "1e300", "--q", "1e300", "--x0", "1"],
         {"tau_bound": "1.9999999999999374e-300", "reaches_zero": "true"}),
    ],
    ids=["log_a_past_max_float", "m_99", "product_underflows", "a_underflows"],
)
def test_bound_at_the_float_range_edges_reaches_zero(capsys, argv, lines):
    code, out, _ = run_cli(capsys, "--quiet", "bound", *argv)
    assert code == EXIT_OK
    block = block_of(out)
    assert {key: block[key] for key in lines} == lines


def test_bound_non_reaching(capsys):
    code, out, _ = run_cli(
        capsys, "bound", "--beta", "0.5", "--alpha", "0.5", "--x0", "1e6"
    )
    assert code == EXIT_OK
    assert block_of(out)["reaches_zero"] == "false"


def test_sweep_small_config(tmp_path, capsys):
    config = {
        "sweep": {
            "tc": [1.0], "beta": [2.0], "q": [1.0], "alpha": [0.5],
            "x0_decades": [-2, 2],
        },
        "output": {"sweep": str(tmp_path / "sweep.csv")},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "--config", str(cfg_path), "sweep")
    assert code == EXIT_OK
    assert "deadline failures: 0" in out
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 1 + 5


def test_default_sweep_through_the_cli_is_pinned(tmp_path, capsys):
    # the script reads its config and policy through the CLI, and writes the
    # DEFAULT_GRID CSV with the bytes and step counts of the library's
    out_file = tmp_path / "sweep.csv"
    code, out, _ = run_cli(capsys, "--quiet", "--out", str(out_file), "sweep")
    assert code == EXIT_OK
    block = block_of(out)
    assert (block["steps_accepted"], block["steps_rejected"]) == ("202636", "9519")
    assert hashlib.sha256(out_file.read_bytes()).hexdigest() == (
        "7ab8585da6504646abe60594517a31057ec4f1b818fc2f7e41f274349a04d168"
    )


def test_sweep_bound_failure_exits_with_the_property_code(tmp_path, capsys):
    config = {
        "sweep": {
            "tc": [1.0], "beta": [2.0], "q": [1.0], "alpha": [0.5],
            "x0_decades": [-2, 2],
        },
        "policy": {"abs_tol": 1e-6},
        "output": {"sweep": str(tmp_path / "sweep.csv")},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "--config", str(cfg_path), "sweep")
    assert code == EXIT_PROPERTY
    block = block_of(out)
    assert (block["bound_failures"], block["check_failures"]) == ("4", "10")
    assert block["worst_bound_gap_row"] == "0"


def test_sweep_inadmissible_separated(tmp_path, capsys):
    config = {
        "sweep": {
            "tc": [1.0], "beta": [1.0, 2.0], "q": [1.0], "alpha": [0.5],
            "x0_decades": [0, 0],
        },
        "output": {"sweep": str(tmp_path / "sweep.csv")},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "--config", str(cfg_path), "sweep")
    assert code == EXIT_OK
    block = block_of(out)
    assert block["inadmissible_rows"] == "1"
    assert block["deadline_failures"] == "0"


def test_sweep_determinism_byte_identical(tmp_path, capsys):
    config = {
        "sweep": {
            "tc": [0.5, 1.0], "beta": [2.0, 3.0], "q": [1.0], "alpha": [0.5],
            "x0_decades": [-3, 3],
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli(capsys, "--config", str(cfg_path), "--out", str(out_a), "sweep")[0] == EXIT_OK
    assert run_cli(capsys, "--config", str(cfg_path), "--out", str(out_b), "sweep")[0] == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()


def test_config_unknown_key_named(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sweep": {"betaa": [2.0]}}))
    code, out, err = run_cli(capsys, "--config", str(cfg_path), "sweep")
    assert code == EXIT_VALIDATION
    assert "sweep.betaa" in err


def test_unreadable_or_non_json_config_is_a_validation_error(tmp_path, capsys):
    not_json = tmp_path / "cfg.json"
    not_json.write_text("{not json")
    for path, text in ((tmp_path / "missing.json", "cannot read config"),
                       (not_json, "is not valid JSON")):
        code, out, err = run_cli(capsys, "--config", str(path), "bound")
        assert code == EXIT_VALIDATION
        assert text in err
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [("[1]", "config root must be an object of sections"),
     ('{"params": 3}', "config section 'params' must be an object"),
     ('{"params": {"tc": 1, "tc": 2}}', "repeated config key: tc"),
     ('{"params": {}, "params": {"tc": 2}}', "repeated config key: params")],
    ids=["list_root", "number_section", "repeated_key", "repeated_section"],
)
def test_config_root_and_sections_must_be_objects(tmp_path, capsys, text, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    code, out, err = run_cli(capsys, "--config", str(cfg_path), "simulate")
    assert code == EXIT_VALIDATION
    assert err == f"error: {message}\n"
    assert out == ""


def test_sweep_empty_grid_axis_is_named(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sweep": {"tc": []}}))
    out_path = tmp_path / "sweep.csv"
    code, out, err = run_cli(capsys, "--config", str(cfg_path), "--out", str(out_path), "sweep")
    assert code == EXIT_VALIDATION
    assert err == "error: invalid sweep config: tc_values must be non-empty\n"
    assert not out_path.exists()


_REMOVED_SWEEP_KEYS = {"workers": 4, "law": "time_barrier", "checks": ["deadline"], "dim": 2}


@pytest.mark.parametrize("key", sorted(_REMOVED_SWEEP_KEYS))
def test_config_sweep_workers_rejected(tmp_path, capsys, key):
    # sweeps have no worker count, law, check selection or dimension, so
    # each of these keys is rejected by name
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sweep": {key: _REMOVED_SWEEP_KEYS[key]}}))
    code, out, err = run_cli(capsys, "--config", str(cfg_path), "sweep")
    assert code == EXIT_VALIDATION
    assert f"sweep.{key}" in err


def test_config_sweep_decade_overflow_named(tmp_path, capsys):
    # 10.0**309 overflows; the config is rejected before any row runs
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sweep": {"x0_decades": [309, 309]}}))
    code, out, err = run_cli(
        capsys, "--config", str(cfg_path), "--out", str(tmp_path / "s.csv"), "sweep"
    )
    assert code == EXIT_VALIDATION
    assert "x0_decades" in err
    assert not (tmp_path / "s.csv").exists()


def test_config_sweep_decade_underflow_named(tmp_path, capsys):
    # 10.0**-324 underflows to 0.0; the config is rejected before any row runs
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sweep": {"x0_decades": [-330, -322]}}))
    code, out, err = run_cli(
        capsys, "--config", str(cfg_path), "--out", str(tmp_path / "s.csv"), "sweep"
    )
    assert code == EXIT_VALIDATION
    assert "sweep.x0_decades" in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize(
    "section",
    [
        {"tc": 1.0},
        {"x0_decades": 5},
        {"x0_decades": [1, 2, 3]},
        {"tc": ["a"]},
        {"x0_decades": [float("inf"), 1]},
        {"beta": [True, 2]},
        {"tc": ["1"]},
        {"x0_decades": [-1.5, 0]},
        {"x0_decades": [False, 0]},
        {"seed": 3},
    ],
    ids=[
        "scalar_grid",
        "scalar_decades",
        "three_decades",
        "non_numeric",
        "infinite_decade",
        "bool_grid_value",
        "string_grid_value",
        "fractional_decade",
        "bool_decade",
        "unknown_seed",
    ],
)
def test_config_sweep_type_error_named(tmp_path, capsys, section):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"sweep": section}))
    code, out, err = run_cli(
        capsys, "--config", str(cfg_path), "--out", str(tmp_path / "s.csv"), "sweep"
    )
    assert code == EXIT_VALIDATION
    (key,) = section
    assert f"sweep.{key}" in err


@pytest.mark.parametrize(
    "config, command",
    [
        ({"params": {"tc": None}}, "simulate"),
        ({"params": {"tc": [1]}}, "simulate"),
        ({"params": {"beta": "2"}}, "simulate"),
        ({"params": {"q": True}}, "certify"),
        ({"simulate": {"bias": None}}, "simulate"),
        ({"simulate": {"x0": [1, 0.5]}}, "simulate"),
        ({"output": {"trajectory": 2}}, "simulate"),
        ({"output": {"report": None}}, "certify"),
        ({"output": {"sweep": None}}, "sweep"),
    ],
    ids=[
        "null_tc",
        "list_tc",
        "string_beta",
        "bool_q",
        "null_bias",
        "list_x0",
        "descriptor_trajectory",
        "null_report",
        "null_sweep",
    ],
)
def test_config_type_error_named(tmp_path, capsys, config, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(cfg_path), command)
    assert code == EXIT_VALIDATION
    ((section, content),) = config.items()
    (key,) = content
    assert f"{section}.{key}" in err
    assert out == ""


@pytest.mark.parametrize("command", ["simulate", "certify"])
def test_unwritable_out_path_is_a_validation_error(tmp_path, capsys, command):
    # --out of simulate is the trajectory CSV, of certify the report
    out_path = tmp_path / "no_such_dir" / "out.txt"
    code, out, err = run_cli(capsys, "--quiet", "--out", str(out_path), command)
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ")
    assert str(out_path) in err


@pytest.mark.parametrize("command", ["bound", "witness"])
@pytest.mark.parametrize("before", [True, False], ids=["global", "after_command"])
def test_out_is_rejected_by_a_command_that_writes_no_file(tmp_path, capsys, command, before):
    out_path = tmp_path / "out.txt"
    flag = ["--out", str(out_path)]
    argv = flag + [command] if before else [command] + flag
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_VALIDATION
    assert err == f"error: --out: {command} writes no file\n"
    assert out == "" and not out_path.exists()


def test_empty_sweep_output_path_is_a_validation_error(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "sweep": {"tc": [1.0], "beta": [2.0], "q": [1.0], "alpha": [0.5], "x0_decades": [0, 0]},
        "output": {"sweep": ""},
    }))
    code, out, err = run_cli(capsys, "--config", str(cfg_path), "sweep")
    assert code == EXIT_VALIDATION
    assert err.startswith("error: ")
    assert "''" in err


@pytest.mark.parametrize("command", ["simulate", "certify", "bound"])
def test_bad_config_x0_is_named_by_its_key(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"simulate": {"x0": "abc"}}))
    code, out, err = run_cli(capsys, "--config", str(cfg_path), command)
    assert code == EXIT_VALIDATION
    assert "simulate.x0" in err and "--x0" not in err
    # the flag overrides the config, and a bad flag value is named by the flag
    code, out, err = run_cli(capsys, "--config", str(cfg_path), command, "--x0", "1,x")
    assert code == EXIT_VALIDATION
    assert "--x0" in err and "simulate.x0" not in err


@pytest.mark.parametrize(
    "policy",
    [{"rel_tol": None}, {"rel_tol": True}, {"eps_conv": "1e-8"}, {"abs_tol": -1.0},
     {"rel_tol": 10**400}],
    ids=["null_rel_tol", "bool_rel_tol", "string_eps_conv", "negative_abs_tol", "huge_rel_tol"],
)
def test_bad_policy_value_is_named_by_its_key(tmp_path, capsys, policy):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"policy": policy}))
    code, out, err = run_cli(capsys, "--config", str(cfg_path), "simulate")
    assert code == EXIT_VALIDATION
    (key,) = policy
    assert f"policy.{key}" in err
    assert out == ""


def test_config_sign_eps_is_an_unknown_policy_key(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"policy": {"sign_eps": 0.001}}))
    code, out, err = run_cli(capsys, "--config", str(cfg_path), "simulate")
    assert code == EXIT_VALIDATION
    assert "unknown config key: policy.sign_eps" in err
    assert "Traceback" not in err and out == ""


def test_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, timebarrier, timebarrier.cli; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


_RUN_PATH = """
import dataclasses, sys
import numpy
if "numpy.ma" in sys.modules:
    sys.exit(77)
import timebarrier as tb
from timebarrier.cli import parse_trajectory_csv, render_sweep_csv, render_trajectory_csv
p = tb.BarrierParams(1.0, 2.0, 1.0, 0.5)
scalar = tb.simulate(tb.make_time_barrier_scalar(p), 1.0, p)
spec = tb.make_time_barrier_componentwise(p, 3)
tb.simulate(spec, [1.0, -0.5, 0.25], p)
tb.settling_report(scalar)
tb.check_dissipation(scalar, p)
fd = tb.simulate(dataclasses.replace(spec, vdot=None), [1.0, -0.5, 0.25], p)
tb.check_dissipation(fd, p)
tb.exact_solution_scalar_array(p, 1.0, scalar.times)
cfg = tb.SweepConfig(
    tc_values=(1.0,), beta_values=(2.0,), q_values=(1.0,), alpha_values=(0.5,),
    x0_decades=(-2, 2),
)
render_sweep_csv(tb.run_sweep(cfg))
parse_trajectory_csv(render_trajectory_csv(scalar))
assert "numpy.ma" not in sys.modules, "the run path imported numpy.ma"
"""


def test_run_path_leaves_numpy_ma_unloaded():
    # numpy 2.x's np.unique imports numpy.ma (~1 MB resident), which the library never uses
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_PATH], env=env, capture_output=True, text=True, timeout=60
    )
    if proc.returncode == 77:
        pytest.skip("this numpy release loads numpy.ma on import")
    assert proc.returncode == 0, proc.stderr


def test_config_unknown_section_named(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"simulat": {}}))
    code, out, err = run_cli(capsys, "--config", str(cfg_path), "simulate")
    assert code == EXIT_VALIDATION
    assert "simulat" in err


def test_simulate_reads_config_bias(tmp_path, capsys):
    from timebarrier import BarrierParams, NumericPolicy, make_time_barrier_scalar, simulate
    from timebarrier.cli import render_trajectory_csv

    cfg_path = tmp_path / "bias.json"
    cfg_path.write_text(json.dumps({"simulate": {"bias": 0.5}}))
    out_file = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "--config", str(cfg_path), "--out", str(out_file), "simulate", "--x0", "1"
    )
    # the biased field at the origin is the bias, so the clamp past its crossing is
    # not its flow: no settling instant and a FAIL
    assert code == EXIT_PROPERTY
    block = block_of(out)
    assert (block["converged_at"], block["deadline_pass"]) == ("", "false")
    assert "deadline check: FAIL" in out
    p, policy = BarrierParams(1.0, 2.0, 1.0, 0.5), NumericPolicy()
    want, unbiased = (
        render_trajectory_csv(simulate(make_time_barrier_scalar(p, policy, bias=b), 1.0, p, policy))
        for b in (0.5, 0.0)
    )
    text = out_file.read_text()
    assert text != unbiased
    assert text.splitlines() == want.splitlines()
    # only the scalar law takes a bias, and the error names the config key
    code, _, err = run_cli(capsys, "--config", str(cfg_path), "simulate", "--x0", "1,2")
    assert code == EXIT_VALIDATION and "simulate.bias" in err


def test_config_supplies_defaults_flags_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"params": {"beta": 3.0}, "simulate": {"x0": 2.0}}))
    code, out, _ = run_cli(capsys, "--config", str(cfg_path), "bound", "--x0", "4.0")
    assert code == EXIT_OK
    # beta=3 from config, x0=4 from the flag: tau for m=1.5 from V0=4
    from timebarrier import BarrierParams, settling_bound

    want = settling_bound(BarrierParams(1, 3, 1, 0.5), 4.0).tau_bound
    assert float(block_of(out)["tau_bound"]) == pytest.approx(want, abs=1e-12)


def test_numerical_failure_exit_code(tmp_path, capsys):
    # an unreachable eps_conv at hopeless tolerances drives the state into
    # denormal range where the error scale cannot be met: a genuine stall
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "policy": {"eps_conv": 1e-290, "abs_tol": 1e-300, "rel_tol": 1e-13},
    }))
    code, out, err = run_cli(
        capsys, "--config", str(cfg_path), "simulate", "--beta", "40", "--x0", "1e6"
    )
    assert code == EXIT_NUMERIC
    assert "stall" in err


@pytest.mark.parametrize("command", ["simulate", "certify", "bound", "witness"])
def test_quiet_suppresses_human_text(capsys, command):
    code, loud, _ = run_cli(capsys, command)
    quiet_code, out, _ = run_cli(capsys, "--quiet", command)
    assert code == quiet_code == EXIT_OK
    pairs = block_of(out)
    assert pairs and len(pairs) == len(out.splitlines())  # key=value lines only
    # the same block, without the human text around it
    assert block_of(loud) == pairs and len(loud.splitlines()) > len(pairs)


def test_help_golden(capsys):
    assert main(["--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (DATA / "help_main.txt").read_text()
    assert main(["simulate", "--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out == (DATA / "help_simulate.txt").read_text()


def test_unknown_flag_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "simulate", "--bogus", "1")
    assert code == EXIT_VALIDATION
    assert "error" in err


def test_exit_codes_partition():
    build_parser()
    assert {EXIT_OK, EXIT_VALIDATION, EXIT_NUMERIC, EXIT_PROPERTY} == {0, 1, 2, 3}


@pytest.mark.parametrize("command", ["simulate", "certify", "bound"])
@pytest.mark.parametrize(
    "config",
    [{"params": {"tc": 10**400}}, {"params": {"q": -(10**400)}},
     {"simulate": {"bias": 10**400}}, {"simulate": {"x0": 10**400}}],
    ids=["huge_tc", "huge_negative_q", "huge_bias", "huge_x0"],
)
def test_config_number_past_the_float_range_is_named(tmp_path, capsys, config, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "--config", str(cfg_path), command)
    assert code == EXIT_VALIDATION
    ((section, content),) = config.items()
    (key,) = content
    assert err == f"error: invalid {section}.{key}: int too large to convert to float\n"
    assert out == ""


@pytest.mark.parametrize("command", ["simulate", "certify"])
def test_config_delta_end_not_below_tc_is_named(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"policy": {"delta_end": 5}}))
    code, out, err = run_cli(capsys, "--config", str(cfg_path), command)
    assert code == EXIT_VALIDATION
    assert err == "error: invalid policy.delta_end: delta_end=5 must lie in (0, tc=1.0)\n"
    assert out == ""
    # the flag's tc decides: below it the same delta_end is valid
    code, out, err = run_cli(capsys, "--config", str(cfg_path), command, "--tc", "10")
    assert code != EXIT_VALIDATION
    assert err == ""


def test_sweep_delta_end_not_below_the_smallest_tc_is_named(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    out_path = tmp_path / "sweep.csv"
    cfg_path.write_text(json.dumps({
        "policy": {"delta_end": 5},
        "sweep": {"tc": [10, 1], "beta": [2], "q": [1], "alpha": [0.5], "x0_decades": [0, 0]},
    }))
    code, out, err = run_cli(capsys, "--config", str(cfg_path), "--out", str(out_path), "sweep")
    assert code == EXIT_VALIDATION
    assert "invalid policy.delta_end" in err
    assert not out_path.exists()


@pytest.mark.parametrize("text", ["", "\n\n"])
def test_trajectory_text_without_a_header_line_is_named(text):
    with pytest.raises(ValueError, match="trajectory text has no header line"):
        parse_trajectory_csv(text)


_KEYED = [name for name, setting in cli._SETTINGS.items() if setting.section]


@pytest.mark.parametrize("name", _KEYED)
def test_flag_and_config_key_resolve_alike(tmp_path, name):
    setting = cli._SETTINGS[name]
    convert = cli._vector if str in setting.types[0] else float
    parser = build_parser()
    command = setting.commands[0]
    flagged, bare = parser.parse_args([command, f"--{name}", "0.75"]), parser.parse_args([command])

    def resolve(args, config):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        value = cli._resolve(args, cli.load_config(str(cfg_path)), name, convert)
        return np.asarray(value).tolist()

    by_flag = resolve(flagged, {})
    assert np.ravel(by_flag).tolist() == [0.75]
    assert resolve(bare, {setting.section: {name: 0.75}}) == by_flag
    # the flag wins over the config key, which wins over the default
    assert resolve(flagged, {setting.section: {name: 0.25}}) == by_flag
    assert np.ravel(resolve(bare, {setting.section: {name: 0.25}})).tolist() == [0.25]
    assert resolve(bare, {}) == np.asarray(convert(setting.default)).tolist()


# the flags each command took before the settings table, plus simulate --bias
_COMMAND_FLAGS = {
    "simulate": {"--tc", "--beta", "--q", "--alpha", "--x0", "--bias"},
    "certify": {"--tc", "--beta", "--q", "--alpha", "--x0", "--bias"},
    "sweep": set(),
    "bound": {"--tc", "--beta", "--q", "--alpha", "--x0"},
    "witness": {"--tc", "--beta", "--q", "--alpha", "--vlevel", "--t1", "--t2"},
}


def test_each_command_takes_exactly_its_settings_flags():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_COMMAND_FLAGS)
    for command, sp in sub.choices.items():
        flags = {flag for action in sp._actions for flag in action.option_strings}
        rows = {f"--{name}" for name, s in cli._SETTINGS.items() if command in s.commands}
        assert flags - {"-h", "--help", "--config", "--out", "--quiet"} == rows
        assert rows == _COMMAND_FLAGS[command]
    # and no config key beyond those that were there
    assert set(cli._SCHEMA["params"]) == {"tc", "beta", "q", "alpha"}
    assert set(cli._SCHEMA["simulate"]) == {"x0", "bias"}


def test_simulate_bias_flag_matches_the_config_key(tmp_path, capsys):
    cfg_path = tmp_path / "bias.json"
    cfg_path.write_text(json.dumps({"simulate": {"bias": 0.1}}))
    by_flag, by_key = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a, out_a, err_a = run_cli(capsys, "--out", str(by_flag), "simulate", "--bias", "0.1")
    code_b, out_b, err_b = run_cli(
        capsys, "--config", str(cfg_path), "--out", str(by_key), "simulate"
    )
    assert (code_a, block_of(out_a), err_a) == (code_b, block_of(out_b), err_b)
    # the biased field at the origin is the bias, so the origin is no equilibrium and
    # the clamp past the crossing is not the flow: no settling instant, a FAIL
    assert code_a == EXIT_PROPERTY
    assert block_of(out_a)["deadline_pass"] == "false"
    assert by_flag.read_bytes() == by_key.read_bytes()
    unbiased = tmp_path / "c.csv"
    run_cli(capsys, "--out", str(unbiased), "simulate")
    assert by_flag.read_bytes() != unbiased.read_bytes()


@pytest.mark.parametrize("command", ["simulate", "certify"])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_non_finite_bias_flag_is_a_validation_error(capsys, command, text):
    code, _, err = run_cli(capsys, command, f"--bias={text}")
    assert code == EXIT_VALIDATION
    assert "bias" in err
    assert "blow-up" not in err


@pytest.mark.parametrize("command", ["simulate", "certify"])
def test_non_finite_bias_config_key_is_a_validation_error(tmp_path, capsys, command):
    # json.load accepts the bare NaN token
    cfg_path = tmp_path / "bias.json"
    cfg_path.write_text('{"simulate": {"bias": NaN}}')
    code, _, err = run_cli(capsys, "--config", str(cfg_path), command)
    assert code == EXIT_VALIDATION
    assert "bias" in err
    assert "blow-up" not in err


@pytest.mark.parametrize(
    "command, flag, value, code",
    [
        ("simulate", "x0", "-1e3", EXIT_OK),
        ("simulate", "x0", "-1,2", EXIT_OK),
        ("simulate", "x0", "-.5", EXIT_OK),
        ("bound", "x0", "-1e3", EXIT_OK),
        ("simulate", "bias", "-inf", EXIT_VALIDATION),
    ],
)
def test_negative_flag_value_reads_as_its_equals_spelling(capsys, command, flag, value, code):
    # argparse alone reads only -1000 and -.5 here as values, the rest as flags
    spaced = run_cli(capsys, command, f"--{flag}", value)
    assert spaced == run_cli(capsys, command, f"--{flag}={value}")
    assert spaced[0] == code
    if code == EXIT_VALIDATION:
        assert flag in spaced[2]


def test_unknown_single_dash_flag_still_fails(capsys):
    code, _, err = run_cli(capsys, "simulate", "-x")
    assert code == EXIT_VALIDATION
    assert "unrecognized arguments: -x" in err
