import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import wignerchaos
from wignerchaos.bichaos import norm2
from wignerchaos import breuer_major, cli, grid_kernel
from wignerchaos.cli import _fmt, main
from wignerchaos.grid_kernel import (
    GridSpec,
    inner,
    is_mirror_symmetric,
    is_symmetric,
    kernels_close,
    norm,
)
from wignerchaos.workloads import counterexample_kernel, random_symmetric_unit_kernel

from oracles import slice_pair_form


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse refuses a bad flag
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fmt_prints_numpy_floats_as_plain_floats():
    # repr of a numpy float names its type; CSV must print what JSON prints
    assert _fmt(np.float64(0.1)) == "0.1" == json.dumps(np.float64(0.1))
    assert _fmt(np.float32(0.1)) == repr(float(np.float32(0.1)))
    assert _fmt([np.float64(0.5), 2, np.float32(0.25)]) == "0.5,2,0.25"
    assert _fmt(0.1) == "0.1"
    assert _fmt(np.float64("inf")) == "inf"
    assert _fmt(True) == "True"


TABLES = {
    "constants": ("--n-max", "5"),
    "counterexample": ("--N", "2,3"),
    "bound-check": ("--n", "3", "--grid", "2", "--trials", "3"),
    "breuer-major": ("--m", "16,32,64,128"),
}


@pytest.mark.parametrize("subcommand", sorted(cli._SUBCOMMANDS))
def test_csv_and_json_name_the_same_columns(capsys, subcommand):
    argv = (subcommand, *TABLES[subcommand])
    _, out, _ = run(capsys, "--format", "csv", *argv)
    lines = [line for line in out.splitlines() if not line.startswith("#")]
    _, out, _ = run(capsys, "--format", "json", *argv)
    doc = json.loads(out)
    assert lines[0] == ",".join(doc["fields"])
    assert len(lines) - 1 == len(doc["rows"]) > 0
    for line, row in zip(lines[1:], doc["rows"]):
        assert len(line.split(",")) == len(doc["fields"])
        assert sorted(row) == sorted(doc["fields"])


def test_a_row_of_the_wrong_length_raises_before_anything_is_written(monkeypatch, capsys):
    runner, help_text, defaults = cli._SUBCOMMANDS["constants"]
    for change in (lambda row: row[:-1], lambda row: (*row, 0.0)):
        def changed_rows(**kwargs):
            fields, rows, summary, failures = runner(**kwargs)
            return fields, [change(row) for row in rows], summary, failures

        monkeypatch.setitem(cli._SUBCOMMANDS, "constants", (changed_rows, help_text, defaults))
        for fmt in ("csv", "json"):
            with pytest.raises(ValueError, match="zip"):
                main(["--format", fmt, "constants", "--n-max", "4"])
            assert capsys.readouterr().out == ""


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


def test_counterexample_summand_equals_slice_pair_oracle(capsys):
    # the table sums four (q, s, s') products of the quadratic form; the
    # oracle enumerates the same term in its (k, j, p, r) form
    sizes = list(range(1, 25))
    _, out, _ = run(capsys, "--format", "json", "counterexample", "--N", ",".join(map(str, sizes)))
    rows = json.loads(out)["rows"]
    assert [row["N"] for row in rows] == sizes
    for row in rows:
        want = norm2(slice_pair_form(counterexample_kernel(row["N"]), 2, 2))
        assert row["summand_norm2"] == want, row["N"]


def test_counterexample_over_cap_exits_two(capsys):
    # refused before the N^3 array: exit 1 would claim a failed identity
    code, out, err = run(capsys, "counterexample", "--N", "100000")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "exceeds the cap" in err


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


def test_bound_check_n9_exit_zero(capsys):
    # on 2 cells only the cap bounds the order: the largest slot is 16 here
    code, out, err = run(capsys, "bound-check", "--n", "9", "--grid", "2", "--trials", "3")
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[3:] if not line.startswith("#")]
    assert len(rows) == 3 and all(row[5] == "True" for row in rows)


def test_bound_check_seeds_differ(capsys):
    _, out1, _ = run(capsys, "bound-check", "--trials", "3", "--seed", "0")
    _, out2, _ = run(capsys, "bound-check", "--trials", "3", "--seed", "7")
    _, out3, _ = run(capsys, "bound-check", "--trials", "3", "--seed", "0")
    assert out1 != out2
    assert out1 == out3


@pytest.mark.parametrize("seed", [2**64, 10**30])
def test_bound_check_seed_beyond_64_bits_exits_two(capsys, seed):
    # a Philox key word holds 64 bits: a larger seed escaped as OverflowError
    # with exit 1, which the CLI reserves for failed identities
    code, out, err = run(capsys, "bound-check", "--trials", "1", "--seed", str(seed))
    assert (code, out) == (2, "")
    assert err.startswith("error: seed=") and "Traceback" not in err


def test_bound_check_tiny_tol_leaves_closed_form_empty(capsys):
    # at this tol trial 3 passes the mirror and unit-norm checks but not
    # is_symmetric, so it has no closed form: its field is empty in CSV and
    # null in JSON, and it is left out of max_path_diff
    argv = (
        "--tol", "1.2915496650148827e-16", "bound-check", "--n", "4", "--grid", "2",
        "--trials", "4", "--seed", "0",
    )
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    rows = [line.split(",") for line in out.splitlines()[3:] if not line.startswith("#")]
    assert len(rows) == 4 and rows[3][3] == ""
    code, out, err = run(capsys, "--format", "json", *argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["rows"][3]["lhs_closed_form"] is None
    diffs = [
        abs(row["lhs"] - row["lhs_closed_form"])
        for row in doc["rows"]
        if row["lhs_closed_form"] is not None
    ]
    assert len(diffs) < 4
    assert doc["summary"]["max_path_diff"] == max(diffs)


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


@pytest.mark.parametrize("m", ["0,16,64,256", "-4,4,16,64"])
def test_breuer_major_nonpositive_m_exits_two(capsys, m):
    # a sample size below 1 is bad configuration, not a failed identity
    code, out, err = run(capsys, "breuer-major", f"--m={m}")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "m must be >= 1" in err


def test_out_file_and_determinism(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--out", str(p1), "constants", "--n-max", "10"]) == 0
    assert main(["--out", str(p2), "constants", "--n-max", "10"]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("where", ["directory", "missing_parent"])
def test_unwritable_out_exits_two_without_traceback(tmp_path, capsys, where):
    # it used to end in a traceback and exit 1, the status of a failed identity
    out = tmp_path if where == "directory" else tmp_path / "missing" / "a.csv"
    code, stdout, err = run(capsys, "--out", str(out), "constants", "--n-max", "3")
    assert (code, stdout) == (2, "")
    assert err.startswith("error: ") and str(out) in err
    assert "Traceback" not in err


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


def test_config_line_without_equals_exits_two_at_its_line(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nn-max 4\n")
    code, out, err = run(capsys, "--config", str(cfg), "constants")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {cfg}:2: expected key=value")


def test_tol_echoed_in_header(capsys):
    _, out, _ = run(capsys, "--tol", "1e-7", "constants", "--n-max", "3")
    assert "tol=1e-07" in out.splitlines()[1]


@pytest.mark.parametrize(
    "line, subcommand",
    [
        ("format=xml", "constants"),
        ("m=16,x", "breuer-major"),
        ("trials=-1", "bound-check"),
        ("n-max=1000000", "constants"),
    ],
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
        ("constants", "--n-max", "1000000"),
    ],
)
def test_bad_flag_value_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert "error: argument --" in err


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """The README's `wignerchaos ...` command lines and its documented bm.cfg."""
    blocks = README.read_text().split("```")[1::2]  # inside the fences
    commands, config = [], []
    for block in blocks:
        text = block.replace("\\\n", " ")
        for line in text.splitlines():
            if line.startswith("wignerchaos "):
                commands.append(line.split()[1:])
            elif line.startswith("#   "):  # the lines listed under "# bm.cfg:"
                config.append(line[4:])
    return commands, config


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    commands, config = readme_examples()
    words = {word for argv in commands for word in argv}
    assert words >= {"constants", "counterexample", "bound-check", "breuer-major", "bm.cfg"}
    assert config and "`counterexample` exits 1 by design" in README.read_text()
    (tmp_path / "bm.cfg").write_text("\n".join(config) + "\n")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == (1 if "counterexample" in argv else 0), (argv, err)
        assert out and "Traceback" not in err, argv


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


def test_breuer_major_over_cap_sample_size_exits_two_before_the_sweep(capsys, monkeypatch):
    # the largest m used to reach gap_fast, which built its O(m) arrays with
    # no cap check; now BMConfig refuses it before any rate is computed
    def no_lags(H, count):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(breuer_major, "_rho_lags", no_lags)
    monkeypatch.setattr(grid_kernel, "MAX_ENTRIES", 2**10)
    code, out, err = run(capsys, "breuer-major", "--m", "4,8,16,2048", "--truncation", "100")
    assert (code, out) == (2, "")
    assert err.startswith("error: m=2048 needs an array of")
    code, out, err = run(capsys, "breuer-major", "--m", "4,8,16", "--truncation", "2048")
    assert (code, out) == (2, "")
    assert err.startswith("error: truncation=2048 needs an array of")


# argv, the function the run would start with, and the error it must give instead
TOO_LARGE_TO_FINISH = {
    # gap_fast would make 5 * 10^11 trace passes, for ever
    "breuer-major": (
        ("breuer-major", "--n", "1000000000000", "--H", "0.3"),
        (breuer_major, "_rho_lags"),
        "error: n=1000000000000 at m=512 needs 500000000000 trace passes",
    ),
    # about 70 minutes of order-8 draws before bound_report refused order 14
    "bound-check-order-14": (
        ("bound-check", "--n", "8", "--grid", "9"),
        (cli, "random_symmetric_unit_kernel"),
        "error: output of order 14 on 9 cells exceeds the cap",
    ),
    # the 512 MiB draw of order 26 before bound_report refused its order-50 slot
    "bound-check-order-26": (
        ("bound-check", "--n", "26", "--grid", "2", "--trials", "1"),
        (cli, "random_symmetric_unit_kernel"),
        "error: output of order 50 on 2 cells exceeds the cap",
    ),
}


@pytest.mark.parametrize("case", TOO_LARGE_TO_FINISH)
def test_run_too_large_to_finish_exits_two_before_it_starts(capsys, monkeypatch, case):
    argv, (module, name), message = TOO_LARGE_TO_FINISH[case]

    def started(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(module, name, started)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(message)
