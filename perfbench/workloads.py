"""The four benchmark workloads: seeded inputs, items and their checks.

An item is one unit of user-visible work (one kernel's ``bound_report``,
one ``breuer-major`` sweep, one moment request) together with the checks
of its result.  ``build`` makes every input before timing starts, so the
timed loop only calls the package.  Items call the package through module
attributes (``gradient.bound_report``), never through names imported here,
so that the tracer in ``tracing.py`` sees every call.
"""

from __future__ import annotations

import json
import math
import os
import resource
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

import numpy as np

# import_module, because the package re-exports the function `gradient`
# under the name of its module
breuer_major = import_module("wignerchaos.breuer_major")
chaos = import_module("wignerchaos.chaos")
cli = import_module("wignerchaos.cli")
gradient = import_module("wignerchaos.gradient")
grid_kernel = import_module("wignerchaos.grid_kernel")

#: Relative tolerance against values recorded from the seed commit.
REF_RTOL = 1e-10
#: Tolerance of the dual-route moment checks (dense vs spectral, multiply vs oracle).
MOMENT_TOL = 1e-9

# bound_sweep: the (n, N) grid of acceptance 3 and ``bound-check``.
SWEEP_SHAPES = [(n, cells) for n in (2, 3, 4) for cells in (2, 3, 4)]
SWEEP_PER_SHAPE = 5

# bound_large: array-bound reports, and the mirror-symmetric counterexample
# that a symmetric-only fast path must leave alone.
LARGE_SHAPES = [(4, 8), (5, 5)]
COUNTEREXAMPLE_N = 24

# rates: the CLI sweep at three (n, H) points, plus seeded dense kernels.
RATE_POINTS = [(2, 0.3), (2, 0.7), (3, 0.6)]
RATE_M = [16 << i for i in range(8)]  # 16 .. 2048
RATE_NORMALIZATION = "asymptotic_sigma"
VM_M = (64, 128, 256, 512)

# moments: the dense order-2 Breuer-Major kernel; m=10 at k=4 is over the cap.
MOMENT_H = 0.7
MOMENT_M = (8, 10)
DENSE_MOMENTS = [(8, 2), (8, 3), (8, 4), (10, 2), (10, 3)]
PRODUCT_TRACES = [(8, 6), (10, 4), (10, 6)]
OVERCAP = (10, 4)
SMALL_ITEMS = 16
#: A refused request must not raise the peak RSS by this much (MiB).
OVERCAP_RSS_SLACK_MB = 64


@dataclass(frozen=True)
class Item:
    """One unit of work; ``run`` returns the messages of failed checks."""

    label: str
    run: Callable[[], list[str]]
    kind: str | None = None  # "sym" or "mirror" for main_bound_lhs items


def close(label: str, got, want, rtol: float) -> list[str]:
    if abs(got - want) <= rtol * abs(want):
        return []
    return [f"{label}: got {got!r}, expected {want!r} (rtol {rtol:g})"]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def symmetric_unit_kernel(cells: int, order: int, seed: int, index: int):
    """Symmetrized, unit-norm kernel with uniform[-1, 1] entries.

    Philox keyed by (seed, index), so each input is reproducible on its own.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, index]))
    grid = grid_kernel.GridSpec(1.0, cells)
    while True:
        raw = rng.uniform(-1.0, 1.0, size=(cells,) * order)
        k = grid_kernel.symmetrize(grid_kernel.Kernel(grid, order, raw))
        nv = grid_kernel.norm(k)
        if nv >= 1e-8:
            return k / nv


def counterexample_kernel(N: int):
    """Order-3 mirror-symmetric unit kernel sqrt(N) * 1[cell(x1) = cell(x3)]."""
    data = np.zeros((N, N, N))
    for a in range(N):
        data[a, :, a] = math.sqrt(N)
    return grid_kernel.Kernel(grid_kernel.GridSpec(1.0, N), 3, data)


def small_element(rng: np.random.Generator, grid):
    """Complex element with two chaos orders drawn from {0, 1, 2, 3}."""
    orders = sorted(rng.choice(4, size=2, replace=False).tolist())
    coeffs = {}
    for n in orders:
        shape = (grid.cells,) * n
        data = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coeffs[n] = grid_kernel.Kernel(grid, n, data)
    return chaos.ChaosElement(grid, coeffs)


# ---------------------------------------------------------------------------
# items
# ---------------------------------------------------------------------------

def bound_item(n: int, f, refs: dict) -> Item:
    cells = f.grid.cells

    def run():
        rep = gradient.bound_report(n, f)
        fails = close(f"C_{n}", rep.c_n, refs["C_n"][str(n)], REF_RTOL)
        if not rep.lhs <= rep.c_n * rep.gap + 1e-9:
            fails.append(f"n={n} N={cells}: lhs {rep.lhs!r} > C_n*gap {rep.c_n * rep.gap!r}")
        if n == 2 and abs(rep.lhs - 1.5 * rep.gap) > 1e-10:
            fails.append(f"N={cells}: lhs {rep.lhs!r} != 1.5*gap {1.5 * rep.gap!r}")
        closed = rep.lhs_closed_form
        if closed is None or closed < rep.lhs - 1e-10:
            fails.append(f"n={n} N={cells}: closed form {closed!r} < slice path {rep.lhs!r}")
        return fails

    return Item(f"bound_report n={n} N={cells}", run, "sym")


def counterexample_item(N: int, refs: dict) -> Item:
    f = counterexample_kernel(N)
    formula = (1.0 + 16.0 / N + 26.0 / N**2) / 9.0

    def run():
        lhs = gradient.main_bound_lhs(3, f)
        return close(f"counterexample N={N} vs formula", lhs, formula, REF_RTOL) + close(
            f"counterexample N={N} vs recorded", lhs, refs["counterexample_lhs"][str(N)], REF_RTOL
        )

    return Item(f"main_bound_lhs counterexample N={N}", run, "mirror")


def run_rate_sweep(n: int, H: float, out: str) -> tuple[int, dict | None]:
    """One ``breuer-major`` CLI sweep; returns the exit code and the document."""
    code = cli.main([
        "--format", "json", "--out", out, "breuer-major",
        "--n", str(n), "--H", repr(H),
        "--m", ",".join(map(str, RATE_M)),
        "--normalization", RATE_NORMALIZATION,
    ])
    if code != 0:
        return code, None
    with open(out) as fh:
        return code, json.load(fh)


def rate_item(n: int, H: float, out: str, refs: dict) -> Item:
    key = f"{n},{H!r}"

    def run():
        code, doc = run_rate_sweep(n, H, out)
        if code != 0:
            return [f"breuer-major {key}: exit code {code}"]
        ref = refs["rates"][key]
        fails = close(f"breuer-major {key} slope", doc["summary"]["slope"], ref["slope"], REF_RTOL)
        gaps = [row["gap"] for row in doc["rows"]]
        if len(gaps) != len(ref["gaps"]):
            return fails + [f"breuer-major {key}: {len(gaps)} rows, expected {len(ref['gaps'])}"]
        for m, got, want in zip(RATE_M, gaps, ref["gaps"]):
            fails += close(f"breuer-major {key} gap m={m}", got, want, REF_RTOL)
        return fails

    return Item(f"breuer-major n={n} H={H}", run)


def vm_item(cfg, m: int) -> Item:
    """Dense kernel at sample size m; spectral moments against ``gap_fast``."""

    def run():
        g = breuer_major.vm_kernel(cfg, m)
        mom = chaos.spectral_moments(g, 4)
        gap = breuer_major.gap_fast(cfg, m)
        label = f"vm_kernel H={cfg.H!r} m={m}"
        fails = []
        if abs(mom[2] - 1.0) > MOMENT_TOL:
            fails.append(f"{label}: phi(F^2) = {mom[2]!r} != 1")
        if abs((mom[4] - 2.0) - gap) > MOMENT_TOL * max(1.0, gap):
            fails.append(f"{label}: spectral phi(F^4)-2 = {(mom[4] - 2.0)!r} != gap_fast {gap!r}")
        return fails

    return Item(f"vm_kernel+spectral_moments m={m}", run)


def moments_setup():
    """The dense order-2 Breuer-Major elements I_2(g_m) for m in MOMENT_M."""
    cfg = breuer_major.BMConfig(
        n=2, H=MOMENT_H, m_list=MOMENT_M, normalization="exact_variance"
    )
    kernels = {m: breuer_major.vm_kernel(cfg, m) for m in MOMENT_M}
    return kernels, {m: chaos.from_kernel(2, g) for m, g in kernels.items()}


def dense_moment(X, k: int) -> complex:
    return chaos.moment(X, k)


def product_trace(X, k: int) -> complex:
    """phi(X^k) for even k as trace_of_product(X^(k/2), X^(k/2))."""
    half = X
    for _ in range(k // 2 - 1):
        half = chaos.multiply(half, X)
    return chaos.trace_of_product(half, half)


def moment_item(kernels, elements, m: int, k: int, route, refs: dict) -> Item:
    name = route.__name__
    recorded = complex(*refs["moments"][f"{name} m={m} k={k}"])

    def run():
        got = route(elements[m], k)
        spectral = chaos.spectral_moments(kernels[m], k)[k]
        label = f"{name} m={m} k={k}"
        fails = close(f"{label} vs recorded", got, recorded, REF_RTOL)
        if abs(got - spectral) > MOMENT_TOL * max(1.0, abs(spectral)):
            fails.append(f"{label}: dense {got!r} != spectral {spectral!r}")
        return fails

    return Item(f"{name} m={m} k={k}", run)


def overcap_item(elements) -> Item:
    m, k = OVERCAP

    def run():
        before = peak_rss_mb()
        try:
            value = chaos.moment(elements[m], k)
        except grid_kernel.MemoryCapError:
            jump = peak_rss_mb() - before
            if jump > OVERCAP_RSS_SLACK_MB:
                return [f"over-cap moment m={m} k={k}: peak RSS rose {jump:.1f} MiB"]
            return []
        return [f"over-cap moment m={m} k={k} was not refused (got {value!r})"]

    return Item(f"over-cap moment m={m} k={k}", run)


def product_oracle_item(X, Y, Z, index: int) -> Item:
    """phi(XYZ) by the product formula against the pair-partition oracle."""

    def run():
        got = chaos.trace(chaos.multiply(chaos.multiply(X, Y), Z))
        want = 0.0 + 0.0j
        for a, f in X.coeffs.items():
            for b, g in Y.coeffs.items():
                for c, h in Z.coeffs.items():
                    want += chaos.oracle_moment([(a, f), (b, g), (c, h)])
        if abs(got - want) > MOMENT_TOL * max(1.0, abs(want)):
            return [f"small product {index}: multiply {got!r} != oracle {want!r}"]
        return []

    return Item(f"multiply vs oracle #{index}", run)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

def build(name: str, seed: int, refs: dict, tmpdir: str) -> list[Item]:
    """All items of one pass over workload ``name``; inputs come from ``seed``."""
    if name == "bound_sweep":
        items = []
        for i in range(SWEEP_PER_SHAPE):
            for j, (n, cells) in enumerate(SWEEP_SHAPES):
                index = i * len(SWEEP_SHAPES) + j
                items.append(bound_item(n, symmetric_unit_kernel(cells, n, seed, index), refs))
        return items
    if name == "bound_large":
        items = [
            bound_item(n, symmetric_unit_kernel(cells, n, seed, index), refs)
            for index, (n, cells) in enumerate(LARGE_SHAPES)
        ]
        return items + [counterexample_item(COUNTEREXAMPLE_N, refs)]
    if name == "rates":
        rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
        items = [
            rate_item(n, H, os.path.join(tmpdir, f"sweep{i}.json"), refs)
            for i, (n, H) in enumerate(RATE_POINTS)
        ]
        H = float(rng.uniform(0.2, 0.7))
        cfg = breuer_major.BMConfig(n=2, H=H, m_list=VM_M, normalization="exact_variance")
        return items + [vm_item(cfg, m) for m in VM_M]
    if name == "moments":
        kernels, elements = moments_setup()
        items = [overcap_item(elements)]  # first, so its RSS check is sharp in round one
        items += [moment_item(kernels, elements, m, k, dense_moment, refs) for m, k in DENSE_MOMENTS]
        items += [moment_item(kernels, elements, m, k, product_trace, refs) for m, k in PRODUCT_TRACES]
        grid = grid_kernel.GridSpec(1.0, 2)
        for i in range(SMALL_ITEMS):
            rng = np.random.Generator(np.random.Philox(key=[seed, i]))
            X, Y, Z = (small_element(rng, grid) for _ in range(3))
            items.append(product_oracle_item(X, Y, Z, i))
        return items
    raise ValueError(f"unknown workload {name!r}")
