"""Reproducible experiment driver.

Subcommands: ``constants``, ``counterexample``, ``bound-check``,
``breuer-major``, all described by the table ``_SUBCOMMANDS``.  Every run
is fully determined by its flags (plus an optional key=value config file;
flags win, and both go through the same per-key converter), outputs carry
a schema header with the effective configuration, and the exit status is
1 exactly when one of the asserted identities fails beyond tolerance and
2 on a bad flag, config value or parameter.

Each runner returns ``(fields, rows, summary, failures)``, its rows as
tuples in ``fields`` order; ``main`` names their columns once, and both
writers read the named rows.  The effective configuration is one dict,
which JSON writes as it is and CSV echoes sorted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import bounds
from .bichaos import BiChaosElement, norm2
from .breuer_major import NORMALIZATIONS, BMConfig, rate_fit
from .chaos import fourth_moment_gap
from .gradient import bound_report, main_bound_lhs
from .grid_kernel import GridSpec, SplitKernel, adjoint_split, bicontract, inner
from .workloads import counterexample_kernel, random_symmetric_unit_kernel

__all__ = [
    "main",
    "run_bound_check",
    "run_breuer_major",
    "run_constants",
    "run_counterexample",
]

_SCHEMA_PREFIX = "wignerchaos"


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (float, np.floating)):
        # repr of a numpy float names its type: np.float64(0.1)
        return repr(float(v))
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(x) for x in v)
    if v is None:
        return ""
    return str(v)


# ---------------------------------------------------------------------------
# runners: each returns (fields, rows, summary, failures), rows as tuples
# ---------------------------------------------------------------------------

def run_constants(n_max: int, tol: float):
    fields = ["n", "u0", "argmax_u", "P", "C_n", "C_n_floor_ceil"]
    rows, failures = [], []
    for n in range(2, n_max + 1):
        row = bounds.C(n)
        rows.append(
            (n, row.u0, row.argmax_u, row.p_at_argmax, row.c_n, row.floor_ceil_c_n)
        )
        lo, hi = bounds._bracket(n, row.u0)
        if row.argmax_u not in (lo, hi):
            failures.append(
                f"constants: n={n} integer argmax {row.argmax_u} not in "
                f"{{floor,ceil}}(u0) = {{{lo},{hi}}}"
            )
        if n >= 3:
            stat = bounds.P_prime(n, row.u0) * row.u0 / bounds.P(n, row.u0)
            if abs(stat) > 1e-6:
                failures.append(
                    f"constants: n={n} u0 not stationary "
                    f"(normalized derivative {stat:.3e})"
                )
    return fields, rows, {}, failures


def run_counterexample(N: list[int], tol: float):
    fields = ["N", "norm_sq", "gap", "summand_norm2", "lhs"]
    rows, failures = [], []
    for size in N:
        f = counterexample_kernel(size)
        norm_sq = inner(f, f).real
        gap = fourth_moment_gap(f, tol)
        # the (k, j) = (2, 2) slice-pair term of the quadratic form, left factor
        # f: the (q, s, s') products with s = s' = 2 - p, q = p + r, for p = 1, 2
        # and r = 0, 1, each in its own split
        terms = {}
        for q, s in ((1, 1), (2, 1), (2, 0), (3, 0)):
            w = SplitKernel(f, (s + 1, 2 - s))
            term = bicontract(w, adjoint_split(w), 1, q - 1)
            terms[term.split] = term
        summand = norm2(BiChaosElement(f.grid, terms))
        lhs = main_bound_lhs(3, f)
        rows.append((size, norm_sq, gap, summand, lhs))
        if abs(norm_sq - 1.0) > tol:
            failures.append(f"counterexample: N={size} ||f||^2 = {norm_sq!r} != 1")
        if abs(gap * size - 2.0) > tol:
            failures.append(f"counterexample: N={size} gap*N = {gap * size!r} != 2")
        if abs(summand - (1.0 + 3.0 / size)) > tol:
            failures.append(
                f"counterexample: N={size} summand norm2 = {summand!r} "
                f"!= 1 + 3/N = {1.0 + 3.0 / size!r}"
            )
        if not lhs > 1.0:
            failures.append(f"counterexample: N={size} lhs = {lhs!r} not > 1")
    return fields, rows, {}, failures


def run_bound_check(n: int, grid: int, trials: int, seed: int, tol: float):
    fields = ["trial", "gap", "lhs", "lhs_closed_form", "ratio", "bound_satisfied"]
    spec = GridSpec(1.0, grid)
    rows, failures = [], []
    max_ratio = -math.inf
    max_path_diff = 0.0
    for t in range(trials):
        f = random_symmetric_unit_kernel(spec, n, seed, t)
        rep = bound_report(n, f, tol)
        ratio = rep.lhs / (rep.c_n * rep.gap) if rep.gap > 1e-13 else math.nan
        rows.append(
            (t, rep.gap, rep.lhs, rep.lhs_closed_form, ratio, rep.bound_satisfied)
        )
        if not rep.bound_satisfied:
            failures.append(
                f"bound-check: trial {t} lhs = {rep.lhs!r} exceeds "
                f"C_n * gap = {rep.c_n * rep.gap!r}"
            )
        if rep.dc2_from_lhs > rep.dc2_from_gap + tol:
            failures.append(
                f"bound-check: trial {t} distance bound chain out of order "
                f"({rep.dc2_from_lhs!r} > {rep.dc2_from_gap!r})"
            )
        if n == 2 and not math.isnan(ratio) and abs(ratio - 1.0) > tol:
            failures.append(
                f"bound-check: trial {t} n=2 tightness ratio = {ratio!r} != 1"
            )
        # the closed form is only an upper bound for n >= 3; its distance
        # from the slice path is reported, not asserted.  It is absent when
        # the draw fails the symmetry test at tol, and its field is empty.
        if rep.lhs_closed_form is not None:
            max_path_diff = max(max_path_diff, abs(rep.lhs - rep.lhs_closed_form))
        if not math.isnan(ratio):
            max_ratio = max(max_ratio, ratio)
    summary = {
        "max_ratio": max_ratio if max_ratio > -math.inf else math.nan,
        "max_path_diff": max_path_diff,
    }
    return fields, rows, summary, failures


def run_breuer_major(
    n: int, H: float, m: list[int], truncation: int, normalization: str, tol: float
):
    cfg = BMConfig(
        n=n,
        H=H,
        m_list=tuple(m),
        truncation=truncation,
        normalization=normalization,
    )
    result = rate_fit(cfg)
    fields = ["m", "gap", "sqrt_gap_bound", "slope_running", "alpha_theory"]
    columns = (cfg.m_list, result.gaps, result.dc2_from_gap, result.slope_running)
    rows = [(*row, result.alpha_theory) for row in zip(*columns, strict=True)]
    summary = {
        "slope": result.slope,
        "two_alpha": result.two_alpha,
        "slope_minus_two_alpha": result.slope_minus_two_alpha,
        "sigma2": result.sigma2_value,
        "sigma2_tail_bound": result.sigma2_tail_bound,
        "rate_target": "gap ~ m^(2*alpha); distances use the Cauchy-Schwarz bound",
    }
    return fields, rows, summary, []


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _write_csv(fh, schema: str, config: dict, fields, rows, summary):
    echo = " ".join(
        f"{k}={_fmt(v)}" for k, v in sorted(config.items()) if k != "subcommand"
    )
    fh.write(f"# schema={schema}\n")
    fh.write(f"# config: subcommand={config['subcommand']} {echo}\n")
    fh.write(",".join(fields) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(row[k]) for k in fields) + "\n")
    for k in sorted(summary):
        fh.write(f"# {k}={_fmt(summary[k])}\n")


def _write_json(fh, schema: str, config: dict, fields, rows, summary):
    doc = {
        "schema": schema,
        "config": config,
        "fields": fields,
        "rows": rows,
        "summary": summary,
    }
    fh.write(json.dumps(doc, sort_keys=True, indent=2, allow_nan=True) + "\n")


def _emit(config: dict, out: str | None, fields, rows, summary) -> None:
    schema = f"{_SCHEMA_PREFIX}.{config['subcommand']}.v1"
    write = _write_csv if config["format"] == "csv" else _write_json
    if out:
        with open(out, "w") as fh:
            write(fh, schema, config, fields, rows, summary)
    else:
        write(sys.stdout, schema, config, fields, rows, summary)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def _checked(parse, valid=None, need: str = ""):
    """Converter of one key, shared by its flag (argparse ``type=``) and config files.

    Any bad value raises ArgumentTypeError: argparse reports it against the
    flag, _parse_config_file against the file line; both exit with status 2.
    """

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid value {text!r}") from None
        if valid is not None and not valid(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {need}")
        return value

    return convert


_NONNEGATIVE_INT = _checked(int, lambda v: v >= 0, "an integer >= 0")

# Only what the library may never see is checked here (a --seed with
# --trials 0 reaches no kernel); the library's integer check owns the
# ranges of the other keys.
_CONVERTERS = {
    "format": _checked(str, ("csv", "json").__contains__, "csv or json"),
    "out": str,
    "tol": _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0"),
    "n_max": _checked(int, lambda v: v >= 2, "an integer >= 2"),
    "N": _checked(_int_list),
    "n": _checked(int),
    "grid": _checked(int),
    "trials": _NONNEGATIVE_INT,
    "seed": _NONNEGATIVE_INT,
    "H": _checked(float),
    "m": _checked(_int_list),
    "truncation": _checked(int),
    "normalization": _checked(
        str, NORMALIZATIONS.__contains__, " or ".join(NORMALIZATIONS)
    ),
}

_GLOBAL_DEFAULTS = {"format": "csv", "out": None, "tol": 1e-9}

# subcommand -> (runner, help, {key: default}); the runner is called as
# runner(**params, tol=tol) and each key is also the flag --<key>
_SUBCOMMANDS = {
    "constants": (run_constants, "bound-constant table C_n", {"n_max": 12}),
    "counterexample": (
        run_counterexample,
        "mirror-symmetric counterexample table",
        {"N": [2, 4, 8, 16]},
    ),
    "bound-check": (
        run_bound_check,
        "randomized fourth-moment bound checks",
        {"n": 2, "grid": 3, "trials": 50, "seed": 0},
    ),
    "breuer-major": (
        run_breuer_major,
        "gap decay-rate sweep",
        {
            "n": 2,
            "H": 0.3,
            "m": [16, 32, 64, 128, 256, 512],
            "truncation": 100_000,
            "normalization": "exact_variance",
        },
    ),
}


def _parse_config_file(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in _CONVERTERS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = _CONVERTERS[key](raw.strip())
            except argparse.ArgumentTypeError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerchaos",
        description="Exact kernel-calculus experiments for Wigner chaos.",
    )
    parser.add_argument("--format", type=_CONVERTERS["format"], metavar="{csv,json}")
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--tol", type=_CONVERTERS["tol"])
    parser.add_argument("--config", help="key=value config file")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, help_text, defaults) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in defaults:
            flag = "--" + key.replace("_", "-")
            p.add_argument(flag, dest=key, type=_CONVERTERS[key])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        file_values = _parse_config_file(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    def effective(defaults: dict) -> dict:
        # a flag wins over the config file, which wins over the default
        return {
            key: file_values.get(key, default)
            if getattr(args, key) is None
            else getattr(args, key)
            for key, default in defaults.items()
        }

    runner, _, defaults = _SUBCOMMANDS[args.subcommand]
    params = effective(defaults)
    settings = effective(_GLOBAL_DEFAULTS)
    out = settings.pop("out")
    config = {"subcommand": args.subcommand, **settings, **params}
    try:
        fields, rows, summary, failures = runner(**params, tol=config["tol"])
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a row of the wrong length is a defect of its runner: it raises here,
    # before anything is written
    rows = [dict(zip(fields, row, strict=True)) for row in rows]

    try:
        _emit(config, out, fields, rows, summary)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: send the interpreter's final flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    for failure in failures:
        print(f"ASSERTION FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
