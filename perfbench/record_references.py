"""Record the reference values that ``run.py`` checks items against.

    python3 perfbench/record_references.py

Writes ``perfbench/references.json`` from the package in ``src/``.  The
checked-in file was recorded at the commit that introduced the benchmark;
re-record only when a change is meant to alter these numbers.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as w  # noqa: E402
from workloads import gradient  # noqa: E402
from wignerchaos import bounds  # noqa: E402


def main() -> None:
    refs = {
        "C_n": {str(n): bounds.C(n).c_n for n in (2, 3, 4, 5)},
        "counterexample_lhs": {
            str(w.COUNTEREXAMPLE_N): gradient.main_bound_lhs(
                3, w.counterexample_kernel(w.COUNTEREXAMPLE_N)
            )
        },
        "rates": {},
        "moments": {},
    }
    with tempfile.TemporaryDirectory() as tmp:
        for n, H in w.RATE_POINTS:
            code, doc = w.run_rate_sweep(n, H, str(Path(tmp) / "sweep.json"))
            if code != 0:
                raise SystemExit(f"breuer-major n={n} H={H} exited {code}")
            refs["rates"][f"{n},{H!r}"] = {
                "gaps": [row["gap"] for row in doc["rows"]],
                "slope": doc["summary"]["slope"],
            }
    _, elements = w.moments_setup()
    for route, cases in ((w.dense_moment, w.DENSE_MOMENTS), (w.product_trace, w.PRODUCT_TRACES)):
        for m, k in cases:
            value = complex(route(elements[m], k))
            refs["moments"][f"{route.__name__} m={m} k={k}"] = [value.real, value.imag]
    (HERE / "references.json").write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
