"""Reproducible experiment driver.

Subcommands: ``constants``, ``counterexample``, ``bound-check``,
``breuer-major``.  Every run is fully determined by its flags (plus an
optional key=value config file; flags win), outputs carry a schema header
with the effective configuration, and the exit status is nonzero exactly
when one of the asserted identities fails beyond tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds
from .bichaos import norm2
from .breuer_major import BMConfig, rate_fit
from .chaos import fourth_moment_gap
from .gradient import _slice_pair_form, bound_report, main_bound_lhs
from .grid_kernel import GridSpec, Kernel, inner, norm, symmetrize

__all__ = [
    "RunConfig",
    "counterexample_kernel",
    "main",
    "random_symmetric_unit_kernel",
    "run_bound_check",
    "run_breuer_major",
    "run_constants",
    "run_counterexample",
]

_SCHEMA_PREFIX = "wignerchaos"


@dataclass(frozen=True)
class RunConfig:
    """Effective, fully resolved parameters of one CLI run."""

    subcommand: str
    format: str
    out: str | None
    tol: float
    params: dict

    def echo(self) -> str:
        items = {"format": self.format, "tol": self.tol, **self.params}
        return " ".join(f"{k}={_fmt(v)}" for k, v in sorted(items.items()))


def _fmt(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(x) for x in v)
    if v is None:
        return ""
    return str(v)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def random_symmetric_unit_kernel(
    grid: GridSpec, order: int, seed: int, index: int
) -> Kernel:
    """Symmetrized, normalized kernel with uniform[-1, 1] entries.

    The generator is counter-based (Philox keyed by (seed, index)), so
    trial `index` is reproducible independently of the other trials.
    Draws whose symmetrization has norm below 1e-8 are rejected.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, index]))
    while True:
        raw = rng.uniform(-1.0, 1.0, size=(grid.cells,) * order)
        k = symmetrize(Kernel(grid, order, raw))
        nv = norm(k)
        if nv >= 1e-8:
            return k / nv


def counterexample_kernel(N: int) -> Kernel:
    """Order-3 mirror-symmetric unit kernel sqrt(N) * 1[cell(x1) = cell(x3)].

    Not fully symmetric for N >= 2; its fourth-moment gap is 2/N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    grid = GridSpec(1.0, N)
    data = np.zeros((N, N, N))
    for a in range(N):
        data[a, :, a] = math.sqrt(N)
    return Kernel(grid, 3, data)


# ---------------------------------------------------------------------------
# runners: each returns (fieldnames, rows, summary, failures)
# ---------------------------------------------------------------------------

def run_constants(n_max: int, tol: float):
    fields = ["n", "u0", "argmax_u", "P", "C_n", "C_n_floor_ceil"]
    rows, failures = [], []
    for n in range(2, n_max + 1):
        row = bounds.C(n)
        rows.append(
            {
                "n": n,
                "u0": row.u0,
                "argmax_u": row.argmax_u,
                "P": row.p_at_argmax,
                "C_n": row.c_n,
                "C_n_floor_ceil": row.floor_ceil_c_n,
            }
        )
        lo = min(max(math.floor(row.u0), 1), n - 1)
        hi = min(max(math.ceil(row.u0), 1), n - 1)
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


def _counterexample_summand_norm2(f: Kernel) -> float:
    # the (k, q) = (2, 2) slice-pair term of the gradient quadratic form
    return norm2(_slice_pair_form(f, 2, 2))


def run_counterexample(N_list: list[int], tol: float):
    fields = ["N", "norm_sq", "gap", "summand_norm2", "lhs"]
    rows, failures = [], []
    for N in N_list:
        f = counterexample_kernel(N)
        norm_sq = inner(f, f).real
        gap = fourth_moment_gap(f, tol)
        summand = _counterexample_summand_norm2(f)
        lhs = main_bound_lhs(3, f)
        rows.append(
            {
                "N": N,
                "norm_sq": norm_sq,
                "gap": gap,
                "summand_norm2": summand,
                "lhs": lhs,
            }
        )
        if abs(norm_sq - 1.0) > tol:
            failures.append(f"counterexample: N={N} ||f||^2 = {norm_sq!r} != 1")
        if abs(gap * N - 2.0) > tol:
            failures.append(f"counterexample: N={N} gap*N = {gap * N!r} != 2")
        if abs(summand - (1.0 + 3.0 / N)) > tol:
            failures.append(
                f"counterexample: N={N} summand norm2 = {summand!r} "
                f"!= 1 + 3/N = {1.0 + 3.0 / N!r}"
            )
        if not lhs > 1.0:
            failures.append(f"counterexample: N={N} lhs = {lhs!r} not > 1")
    return fields, rows, {}, failures


def run_bound_check(n: int, cells: int, trials: int, seed: int, tol: float):
    fields = ["trial", "gap", "lhs", "lhs_closed_form", "ratio", "bound_satisfied"]
    grid = GridSpec(1.0, cells)
    rows, failures = [], []
    max_ratio = -math.inf
    max_path_diff = 0.0
    for t in range(trials):
        f = random_symmetric_unit_kernel(grid, n, seed, t)
        rep = bound_report(n, f, tol)
        ratio = rep.lhs / (rep.c_n * rep.gap) if rep.gap > 1e-13 else math.nan
        rows.append(
            {
                "trial": t,
                "gap": rep.gap,
                "lhs": rep.lhs,
                "lhs_closed_form": rep.lhs_closed_form,
                "ratio": ratio,
                "bound_satisfied": rep.bound_satisfied,
            }
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
        # from the slice path is reported, not asserted
        max_path_diff = max(max_path_diff, abs(rep.lhs - rep.lhs_closed_form))
        if not math.isnan(ratio):
            max_ratio = max(max_ratio, ratio)
    summary = {
        "max_ratio": max_ratio if max_ratio > -math.inf else math.nan,
        "max_path_diff": max_path_diff,
    }
    return fields, rows, summary, failures


def run_breuer_major(
    n: int, H: float, m_list: list[int], truncation: int, normalization: str, tol: float
):
    cfg = BMConfig(
        n=n,
        H=H,
        m_list=tuple(m_list),
        truncation=truncation,
        normalization=normalization,
    )
    result = rate_fit(cfg)
    fields = ["m", "gap", "sqrt_gap_bound", "slope_running", "alpha_theory"]
    rows = []
    for i, m in enumerate(cfg.m_list):
        rows.append(
            {
                "m": m,
                "gap": result.gaps[i],
                "sqrt_gap_bound": result.dc2_from_gap[i],
                "slope_running": result.slope_running[i],
                "alpha_theory": result.alpha_theory,
            }
        )
    summary = {
        "slope": result.slope,
        "two_alpha": result.two_alpha,
        "slope_minus_two_alpha": result.slope_minus_two_alpha,
        "sigma2": result.sigma2_value,
        "sigma2_tail_bound": result.sigma2_tail_bound,
        "rate_target": "gap ~ m^(2*alpha); distances use the Cauchy-Schwarz bound",
    }
    return fields, rows, summary, failures_empty()


def failures_empty() -> list[str]:
    return []


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _write_csv(fh, schema: str, cfg: RunConfig, fields, rows, summary):
    fh.write(f"# schema={schema}\n")
    fh.write(f"# config: subcommand={cfg.subcommand} {cfg.echo()}\n")
    fh.write(",".join(fields) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(row[k]) for k in fields) + "\n")
    for k in sorted(summary):
        fh.write(f"# {k}={_fmt(summary[k])}\n")


def _write_json(fh, schema: str, cfg: RunConfig, fields, rows, summary):
    doc = {
        "schema": schema,
        "config": {
            "subcommand": cfg.subcommand,
            "format": cfg.format,
            "tol": cfg.tol,
            **{k: list(v) if isinstance(v, tuple) else v for k, v in cfg.params.items()},
        },
        "fields": fields,
        "rows": rows,
        "summary": summary,
    }
    fh.write(json.dumps(doc, sort_keys=True, indent=2, allow_nan=True) + "\n")


def _emit(cfg: RunConfig, fields, rows, summary) -> None:
    schema = f"{_SCHEMA_PREFIX}.{cfg.subcommand}.v1"
    if cfg.out:
        with open(cfg.out, "w") as fh:
            if cfg.format == "csv":
                _write_csv(fh, schema, cfg, fields, rows, summary)
            else:
                _write_json(fh, schema, cfg, fields, rows, summary)
    else:
        if cfg.format == "csv":
            _write_csv(sys.stdout, schema, cfg, fields, rows, summary)
        else:
            _write_json(sys.stdout, schema, cfg, fields, rows, summary)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}") from exc


_DEFAULTS = {
    "constants": {"n_max": 12},
    "counterexample": {"N": [2, 4, 8, 16]},
    "bound-check": {"n": 2, "grid": 3, "trials": 50, "seed": 0},
    "breuer-major": {
        "n": 2,
        "H": 0.3,
        "m": [16, 32, 64, 128, 256, 512],
        "truncation": 100_000,
        "normalization": "exact_variance",
    },
}

_CONVERTERS = {
    "format": str,
    "out": str,
    "tol": float,
    "n_max": int,
    "N": _int_list,
    "n": int,
    "grid": int,
    "trials": int,
    "seed": int,
    "H": float,
    "m": _int_list,
    "truncation": int,
    "normalization": str,
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
            values[key] = _CONVERTERS[key](raw.strip())
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wignerchaos",
        description="Exact kernel-calculus experiments for Wigner chaos.",
    )
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--config", default=None, help="key=value config file")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("constants", help="bound-constant table C_n")
    p.add_argument("--n-max", dest="n_max", type=int, default=None)

    p = sub.add_parser("counterexample", help="mirror-symmetric counterexample table")
    p.add_argument("--N", dest="N", type=_int_list, default=None)

    p = sub.add_parser("bound-check", help="randomized fourth-moment bound checks")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("breuer-major", help="gap decay-rate sweep")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--H", dest="H", type=float, default=None)
    p.add_argument("--m", dest="m", type=_int_list, default=None)
    p.add_argument("--truncation", type=int, default=None)
    p.add_argument(
        "--normalization",
        choices=("asymptotic_sigma", "exact_variance"),
        default=None,
    )
    return parser


def _effective(args, file_values: dict, key: str, builtin):
    cli_value = getattr(args, key.replace("-", "_"), None)
    if cli_value is not None:
        return cli_value
    if key in file_values:
        return file_values[key]
    return builtin


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        file_values = _parse_config_file(args.config) if args.config else {}
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    fmt = _effective(args, file_values, "format", "csv")
    out = _effective(args, file_values, "out", None)
    tol = _effective(args, file_values, "tol", 1e-9)
    defaults = _DEFAULTS[args.subcommand]
    params = {
        key: _effective(args, file_values, key, builtin)
        for key, builtin in defaults.items()
    }
    if args.subcommand == "bound-check" and params["seed"] < 0:
        print("error: seed must be >= 0", file=sys.stderr)
        return 2
    cfg = RunConfig(
        subcommand=args.subcommand, format=fmt, out=out, tol=tol, params=params
    )

    try:
        if args.subcommand == "constants":
            fields, rows, summary, failures = run_constants(params["n_max"], tol)
        elif args.subcommand == "counterexample":
            fields, rows, summary, failures = run_counterexample(params["N"], tol)
        elif args.subcommand == "bound-check":
            fields, rows, summary, failures = run_bound_check(
                params["n"], params["grid"], params["trials"], params["seed"], tol
            )
        else:
            fields, rows, summary, failures = run_breuer_major(
                params["n"],
                params["H"],
                params["m"],
                params["truncation"],
                params["normalization"],
                tol,
            )
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    _emit(cfg, fields, rows, summary)
    for failure in failures:
        print(f"ASSERTION FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
