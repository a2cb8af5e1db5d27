import os
import subprocess
import sys
import textwrap
import tracemalloc
from importlib import import_module
from pathlib import Path

import pytest

import wignerchaos
from wignerchaos.grid_kernel import GridSpec, MemoryCapError, is_symmetric, norm
from wignerchaos.workloads import counterexample_kernel, random_symmetric_unit_kernel

grid_kernel = import_module("wignerchaos.grid_kernel")

# Draws at T = 1e-8..1e8 must equal the T = 1 draw rescaled by T^(-n/2).
# A scale-dependent rejection loops forever, so the draws run in a child
# process that a timeout stops.
DRAWS = textwrap.dedent(
    """
    import numpy as np
    from wignerchaos.grid_kernel import GridSpec, is_symmetric, norm
    from wignerchaos.workloads import random_symmetric_unit_kernel

    for order in (1, 2, 3, 4):
        ref = random_symmetric_unit_kernel(GridSpec(1.0, 3), order, 7, order)
        for T in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            f = random_symmetric_unit_kernel(GridSpec(T, 3), order, 7, order)
            assert abs(norm(f) - 1.0) <= 1e-12, (order, T, norm(f))
            assert is_symmetric(f), (order, T)
            scaled = f.data * T ** (order / 2)
            assert np.max(np.abs(scaled - ref.data)) <= 1e-12 * np.max(np.abs(ref.data))
    """
)


def test_random_symmetric_unit_kernel_terminates_on_every_scale():
    src = str(Path(wignerchaos.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", DRAWS],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr.decode()


def test_random_symmetric_unit_kernel_rejects_negative_arguments():
    # Philox took a negative seed or index; a negative order failed late
    grid = GridSpec(1.0, 3)
    for order, seed, index, message in (
        (2, -1, 0, r"^seed=-1 out of range \[0, 18446744073709551615\]$"),
        (2, 0, -1, r"^index=-1 out of range \[0, 18446744073709551615\]$"),
        (-1, 0, 0, "^order must be >= 0"),
    ):
        with pytest.raises(ValueError, match=message):
            random_symmetric_unit_kernel(grid, order, seed, index)


def test_random_symmetric_unit_kernel_refuses_over_cap_before_drawing(monkeypatch):
    # 64**3 entries exceed a cap of 2**16: refused before the 2 MiB draw
    monkeypatch.setattr(grid_kernel, "MAX_ENTRIES", 2**16)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryCapError):
            random_symmetric_unit_kernel(GridSpec(1.0, 64), 3, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_random_symmetric_unit_kernel_draws_order_20_within_four_kernel_sizes():
    # 2**20 entries (8 MiB) on 2 cells: symmetrize holds the draw and two
    # arrays at a time, whatever the order
    tracemalloc.start()
    try:
        f = random_symmetric_unit_kernel(GridSpec(1.0, 2), 20, 0, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f.order == 20 and is_symmetric(f)
    assert abs(norm(f) - 1.0) <= 1e-12
    assert peak < 4 * f.data.nbytes


def test_counterexample_kernel_refuses_over_cap_before_allocating(monkeypatch):
    # 64**3 entries exceed a cap of 2**16: refused before the 2 MiB array
    monkeypatch.setattr(grid_kernel, "MAX_ENTRIES", 2**16)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryCapError):
            counterexample_kernel(64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_random_symmetric_unit_kernel_keys_every_64_bit_seed_exactly():
    # a key given as a list of ints from 2^63 on passed through float64, so
    # the seeds 2^63 and 2^63 + 1 drew the same kernel; 2^64 and up is refused
    grid = GridSpec(1.0, 3)
    draw = lambda seed, index=0: random_symmetric_unit_kernel(grid, 2, seed, index).data
    assert (draw(2**63) != draw(2**63 + 1)).any()
    assert (draw(2**64 - 1) != draw(2**64 - 2)).any()
    assert (draw(5, 2**64 - 1) != draw(5, 2**64 - 2)).any()
    for seed, index in ((2**64, 0), (0, 2**64), (10**30, 0)):
        with pytest.raises(ValueError, match="out of range"):
            random_symmetric_unit_kernel(grid, 2, seed, index)
