import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wignerchaos
from wignerchaos.cli import main
from wignerchaos.grid_kernel import (
    GridSpec,
    inner,
    is_mirror_symmetric,
    is_symmetric,
    kernels_close,
    norm,
)
from wignerchaos.workloads import counterexample_kernel, random_symmetric_unit_kernel


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses a bad flag
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_counterexample_kernel_shape():
    for N in (1, 2, 5):
        f = counterexample_kernel(N)
        assert f.order == 3
        assert f.grid == GridSpec(1.0, N)
        assert norm(f) == pytest.approx(1.0)
        assert is_mirror_symmetric(f)
    assert not is_symmetric(counterexample_kernel(4))
    with pytest.raises(ValueError):
        counterexample_kernel(0)


def test_random_symmetric_unit_kernel_reproducible():
    g = GridSpec(1.0, 3)
    a = random_symmetric_unit_kernel(g, 3, seed=9, index=4)
    b = random_symmetric_unit_kernel(g, 3, seed=9, index=4)
    assert kernels_close(a, b, rtol=0.0, atol=0.0)
    c = random_symmetric_unit_kernel(g, 3, seed=9, index=5)
    assert not kernels_close(a, c)
    assert is_symmetric(a)
    assert inner(a, a).real == pytest.approx(1.0)


def test_constants_exit_zero_and_schema(capsys):
    code, out, err = run(capsys, "constants", "--n-max", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# schema=wignerchaos.constants.v1"
    assert lines[1].startswith("# config: subcommand=constants")
    assert lines[2] == "n,u0,argmax_u,P,C_n,C_n_floor_ceil"
    assert lines[3].startswith("2,")
    assert ",1.5,1.5" in lines[3]


def test_constants_deterministic(capsys):
    _, out1, _ = run(capsys, "constants", "--n-max", "8")
    _, out2, _ = run(capsys, "constants", "--n-max", "8")
    assert out1 == out2


def test_counterexample_reports_failures_and_exits_nonzero(capsys):
    # two of the four asserted identities do not hold numerically; the
    # command must surface that through the exit status
    code, out, err = run(capsys, "counterexample", "--N", "2,4")
    assert code == 1
    assert "summand norm2" in err
    assert "not > 1" in err
    # the table itself is still written, with the measured values
    assert out.splitlines()[2] == "N,norm_sq,gap,summand_norm2,lhs"
    assert out.splitlines()[3].startswith("2,")


def test_counterexample_norm_and_gap_columns(capsys):
    code, out, err = run(capsys, "--format", "json", "counterexample", "--N", "2")
    doc = json.loads(out)
    row = doc["rows"][0]
    assert row["norm_sq"] == pytest.approx(1.0)
    assert row["gap"] == pytest.approx(1.0)
    assert row["summand_norm2"] == pytest.approx(3.0)
    assert row["lhs"] == pytest.approx((1 + 16 / 2 + 26 / 4) / 9)


def test_bound_check_n2_exit_zero(capsys):
    code, out, err = run(
        capsys, "bound-check", "--n", "2", "--grid", "3", "--trials", "10",
        "--seed", "0",
    )
    assert code == 0
    assert err == ""
    # tightness: every ratio is 1 at n = 2
    for line in out.splitlines()[3:]:
        if line.startswith("#"):
            continue
        ratio = float(line.split(",")[4])
        assert ratio == pytest.approx(1.0, abs=1e-9)


def test_bound_check_n3_exit_zero(capsys):
    code, out, err = run(
        capsys, "bound-check", "--n", "3", "--grid", "2", "--trials", "10",
        "--seed", "1",
    )
    assert code == 0
    assert "max_ratio" in out
    assert "max_path_diff" in out


def test_bound_check_seeds_differ(capsys):
    _, out1, _ = run(capsys, "bound-check", "--trials", "3", "--seed", "0")
    _, out2, _ = run(capsys, "bound-check", "--trials", "3", "--seed", "7")
    _, out3, _ = run(capsys, "bound-check", "--trials", "3", "--seed", "0")
    assert out1 != out2
    assert out1 == out3


def test_breuer_major_csv(capsys):
    code, out, err = run(
        capsys, "breuer-major", "--n", "2", "--H", "0.5", "--m", "16,32,64,128"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[2] == "m,gap,sqrt_gap_bound,slope_running,alpha_theory"
    assert any(line.startswith("# slope=") for line in lines)
    assert any(line.startswith("# sigma2=") for line in lines)


def test_breuer_major_json_summary(capsys):
    code, out, err = run(
        capsys, "--format", "json", "breuer-major", "--n", "2", "--H", "0.3",
        "--m", "16,32,64,128",
    )
    doc = json.loads(out)
    assert doc["schema"] == "wignerchaos.breuer-major.v1"
    assert doc["summary"]["two_alpha"] == -1.0
    assert abs(doc["summary"]["slope"] + 1.0) < 0.2
    assert len(doc["rows"]) == 4


def test_breuer_major_bad_m_list_exits_two(capsys):
    code, out, err = run(capsys, "breuer-major", "--m", "16,32,64")
    assert code == 2
    assert "error:" in err


def test_out_file_and_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--out", str(p1), "constants", "--n-max", "10"]) == 0
    assert main(["--out", str(p2), "constants", "--n-max", "10"]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_config_file_overridden_by_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n-max = 4\nformat = json\n# comment\n")
    code, out, _ = run(capsys, "--config", str(cfg), "constants")
    doc = json.loads(out)
    assert doc["config"]["n_max"] == 4
    # explicit flag wins over the file
    code, out, _ = run(
        capsys, "--config", str(cfg), "--format", "csv", "constants", "--n-max", "3"
    )
    assert out.startswith("# schema=")
    assert "n_max=3" in out.splitlines()[1]


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("bogus_key = 3\n")
    code, out, err = run(capsys, "--config", str(cfg), "constants")
    assert code == 2
    assert "unknown key" in err


def test_tol_echoed_in_header(capsys):
    _, out, _ = run(capsys, "--tol", "1e-7", "constants", "--n-max", "3")
    assert "tol=1e-07" in out.splitlines()[1]


@pytest.mark.parametrize(
    "line, subcommand",
    [("format=xml", "constants"), ("m=16,x", "breuer-major"), ("trials=-1", "bound-check")],
)
def test_bad_config_value_exits_two_at_its_line(tmp_path, capsys, line, subcommand):
    # config values go through the same converters as flags
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# comment\n{line}\n")
    code, out, err = run(capsys, "--config", str(cfg), subcommand)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {cfg}:2: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--tol", "nan", "counterexample"),
        ("--tol", "-1", "constants"),
        ("bound-check", "--trials", "-3"),
    ],
)
def test_bad_flag_value_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error: argument --" in err


def test_closed_stdout_pipe_exits_zero_without_traceback():
    # a reader that leaves early (`wignerchaos constants | head -1`) must not
    # turn a passing run into exit 1, the status of a failed identity
    src = str(Path(wignerchaos.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wignerchaos.cli", "constants", "--n-max", "5"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0, proc.stderr
    assert b"Traceback" not in proc.stderr
