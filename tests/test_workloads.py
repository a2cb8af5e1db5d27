import os
import subprocess
import sys
import textwrap
from pathlib import Path

import wignerchaos

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
