"""Benchmark of the wignerchaos package: four workloads, one item at a time.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bound_sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One workload runs in this process as a closed loop: every input is made
from ``--seed`` before timing starts, then whole passes ("rounds") over the
workload's items repeat while the next round is expected to end within
``--seconds``.  Every item's result is checked.  With ``--trace 0`` the last stdout line carries the
end-to-end metrics; with ``--trace 1`` untraced and traced rounds
alternate and it carries the per-layer metrics of ``tracing.py``.
``--workload all`` runs each workload in its own subprocess and prints a
table.  The exit code is nonzero when any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("bound_sweep", "bound_large", "rates", "moments")
#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import wignerchaos; print(time.perf_counter() - t)"
)


def cap_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def fingerprint(blas_threads: int) -> dict:
    import numpy
    import wignerchaos

    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "package_version": wignerchaos.__version__,
        "blas_threads": blas_threads,
        "git_revision": git_revision(),
    }


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
    )
    return float(out.stdout.strip())


def setup(workload: str, seed: int, refs: dict, tmpdir: str):
    """Build the items SETUP_REPEATS times; setup_s is the median of import + build."""
    import workloads

    times = []
    for _ in range(SETUP_REPEATS):
        t_import = import_seconds()
        start = perf_counter()
        items = workloads.build(workload, seed, refs, tmpdir)
        times.append(t_import + perf_counter() - start)
    return items, statistics.median(times)


def run_round(items, tracer=None):
    """One pass over the items; returns (seconds, latencies, failure messages, failed items)."""
    latencies, messages, failed = [], [], 0
    start = perf_counter()
    for item in items:
        if tracer is not None:
            tracer.kind = item.kind
        t0 = perf_counter()
        try:
            msgs = item.run()
        except Exception as exc:  # an unexpected error fails this item, not the run
            msgs = [f"{item.label}: unexpected {type(exc).__name__}: {exc}"]
        latencies.append(perf_counter() - t0)
        if msgs:
            failed += 1
            messages.extend(msgs)
    return perf_counter() - start, latencies, messages, failed


def measure(items, seconds: float, trace: bool):
    """Repeat rounds for ``seconds``; with ``trace``, alternate plain and traced rounds."""
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds = {"plain": [], "traced": []}
    deadline = perf_counter() + seconds
    # A first round warms up allocations and BLAS threads.  Its items are
    # checked and counted; its timings are left out.
    _, lat, messages, failed = run_round(items)
    attempted = len(lat)
    while True:
        mode = "traced" if trace and len(rounds["traced"]) < len(rounds["plain"]) else "plain"
        if mode == "traced":
            tracer.install()
        try:
            elapsed, lat, msgs, bad = run_round(items, tracer if mode == "traced" else None)
        finally:
            if mode == "traced":
                tracer.uninstall()
        rounds[mode].append((elapsed, lat))
        messages += msgs
        attempted += len(lat)
        failed += bad
        # stop before a round that would likely end past the deadline
        done = not trace or rounds["traced"]
        if done and perf_counter() + elapsed > deadline:
            return rounds, tracer, messages, attempted, failed


def decile(values, k: int) -> float:
    """The k-th decile (k = 1..9) of ``values``, interpolating between samples."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


# Timings are taken on the slow side over rounds (throughput that 9 rounds
# in 10 reach, latency that 9 rounds in 10 stay within).  On a shared host
# the speed of the same round flips between a slow and a fast mode; a
# median over rounds then jumps with the share of fast rounds in a run,
# while the slow-side decile does not.

def items_per_s(rounds) -> float:
    return decile((len(lat) / elapsed for elapsed, lat in rounds), 1)


def end_to_end(rounds, setup_s, attempted, failed) -> dict:
    import workloads

    return {
        "items_per_s": (items_per_s(rounds), "1/s"),
        "item_ms_p50": (decile((statistics.median(lat) * 1e3 for _, lat in rounds), 9), "ms"),
        "item_ms_p90": (decile((decile(lat, 9) * 1e3 for _, lat in rounds), 9), "ms"),
        "peak_rss_mb": (workloads.peak_rss_mb(), "MiB"),
        "setup_s": (setup_s, "s"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
    }


def per_layer(rounds, tracer) -> dict:
    traced_items = sum(len(lat) for _, lat in rounds["traced"])
    metrics = tracer.metrics(traced_items)
    # each traced round follows a plain one; compare within those pairs
    overhead = [1.0 - plain / traced for (plain, _), (traced, _) in zip(rounds["plain"], rounds["traced"])]
    metrics["bench.tracing_overhead_frac"] = (statistics.median(overhead), "ratio")
    return metrics


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_one(args) -> int:
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import wignerchaos

    if Path(wignerchaos.__file__).resolve().parent != SRC / "wignerchaos":
        print(f"error: imported {wignerchaos.__file__}, not the checkout's package", file=sys.stderr)
        return 2
    refs = json.loads((HERE / "references.json").read_text())
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT) as tmpdir:
        items, setup_s = setup(args.workload, args.seed, refs, tmpdir)
        rounds, tracer, messages, attempted, failed = measure(items, args.seconds, args.trace)

    if args.trace:
        metrics = per_layer(rounds, tracer)
    else:
        metrics = end_to_end(rounds["plain"], setup_s, attempted, failed)
    declared = declared_metrics(args.trace)
    if {k: unit for k, (_, unit) in metrics.items()} != declared:
        print("error: metrics differ from BENCHMARK.json", file=sys.stderr)
        return 2

    for msg in messages[:20]:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "items_per_round": len(items),
        "rounds": {mode: len(r) for mode, r in rounds.items()},
        "latency_samples": sum(len(lat) for _, lat in rounds["plain"]),
        "fingerprint": fingerprint(blas_threads),
    }
    print(json.dumps({"run": record}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:44s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own subprocess, so RSS and set-up are its own."""
    status, results = 0, {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(int(args.trace)),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or proc.returncode
        if lines and lines[-1].startswith('{"correct"'):
            results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": status == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items() for metric, value in r["metrics"].items()
        },
    }))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (SRC / "wignerchaos" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
