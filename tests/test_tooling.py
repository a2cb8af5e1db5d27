"""Guards for the tools that reach into the package from outside it.

``perfbench/tracing.py`` wraps module bindings by name, so a deleted or
renamed function breaks ``perfbench/run.py --trace 1`` only when the
benchmark runs.  These tests catch that, a stale ``__all__`` or
re-export, a test oracle named in the package, and a benchmark item whose
checks fail, in the tier-1 suite.  The integer test holds every public
integer parameter, and every integer in the keys of a public dict
parameter, to the package's one integer check; the over-cap table holds
every public function whose size decides an allocation to a
``MemoryCapError`` before its first array; the next holds every
tolerance, Hurst index and real argument of the bound constants to a
check that refuses text, bools and None.  ``chaos.moment`` is held bit for bit to the benchmark's
``product_trace``, so the benchmark's two moment routes time one result.
The last two keep the copying constructor ``Kernel(...)`` at the
package's boundary, and check that what the package builds, which enters
through ``_wrap``, is the kernel that constructor would have made.
"""

import ast
import importlib.util
import inspect
import json
import pkgutil
import sys
import tracemalloc
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import wignerchaos
from wignerchaos import grid_kernel
from wignerchaos.breuer_major import NORMALIZATIONS, BMConfig, increment_kernels, vm_kernel
from wignerchaos.chaos import from_kernel
from wignerchaos.grid_kernel import (
    GridSpec,
    Kernel,
    MemoryCapError,
    SplitKernel,
    adjoint,
    cell_indicator,
    kernel_to_bytes,
    symmetrize,
    zero_kernel,
)
from wignerchaos.workloads import counterexample_kernel, random_symmetric_unit_kernel

ROOT = Path(__file__).resolve().parents[1]


def package_modules():
    return [
        import_module(f"wignerchaos.{info.name}")
        for info in pkgutil.iter_modules(wignerchaos.__path__)
    ]


def bindings(modules):
    return {
        (module.__name__, name): value
        for module in modules
        for name, value in vars(module).items()
    }


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_tracer_install_uninstall_restores_every_binding():
    tracing = load_perfbench("tracing")
    classes = [owner for _, owner, _, _, _ in tracing.SPANS if isinstance(owner, type)]
    owners = [wignerchaos, *package_modules(), *classes]
    before = bindings(owners)
    tracer = tracing.Tracer()
    try:
        tracer.install()  # a traced name missing from the package raises KeyError
        wrapped = [key for key, value in bindings(owners).items() if value is not before[key]]
        # every traced layer has at least one binding to wrap
        assert len(wrapped) >= len(tracing.SPANS)
    finally:
        tracer.uninstall()
    after = bindings(owners)
    changed = [key for key in before if after.get(key) is not before[key]]
    assert not changed
    assert after.keys() == before.keys()


BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_benchmark_item_passes_its_checks(workload, tmp_path):
    # one pass over the items the benchmark times: a failed check here
    # would lower the benchmark's ok_frac
    workloads = load_perfbench("workloads")
    refs = json.loads((ROOT / "perfbench" / "references.json").read_text())
    items = workloads.build(workload, 1, refs, str(tmp_path))
    assert items
    assert [msg for item in items for msg in item.run()] == []


@pytest.mark.parametrize("m", [8, 10])
def test_moment_equals_the_benchmark_product_trace_bit_for_bit(m, monkeypatch):
    # the benchmark's second moment route times what moment computes; at
    # k = 6 (and k = 4 on m = 10) moment's door refuses X^k, so only that
    # door is lifted: every product still meets the cap
    workloads = load_perfbench("workloads")
    _, elements = workloads.moments_setup()
    monkeypatch.setattr(wignerchaos.chaos, "_require_capacity", lambda cells, order: None)
    for k in (2, 4, 6):
        assert wignerchaos.chaos.moment(elements[m], k) == workloads.product_trace(
            elements[m], k
        ), k


def test_every_all_name_resolves():
    for module in package_modules():
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_every_package_reexport_resolves():
    tree = ast.parse(Path(wignerchaos.__file__).read_text())
    imports = [
        node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1
    ]
    assert imports
    for node in imports:
        source = import_module(f"wignerchaos.{node.module}")
        for alias in node.names:
            assert getattr(wignerchaos, alias.name) is getattr(source, alias.name), alias.name


def test_no_test_oracle_is_public():
    # an oracle kept in the tests is the second route of its quantity; named
    # in the package again, it would be a third
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    oracles = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"number_inverse", "coefficient_c", "chebyshev_U"} <= oracles
    public = set(vars(wignerchaos))
    for module in package_modules():
        public |= set(getattr(module, "__all__", ()))
    assert not oracles & public


# cli's boundary is argv, checked by its converters; the records are results
UNCHECKED_MODULES = {"cli"}
RECORDS = {"ConstantsRow", "BoundReport", "BMResult"}


# annotations of parameters that carry integers: the integer itself, or
# the keys of a dict, one integer or a pair of integers per key
INT_ANNOTATIONS = ("int", "dict[int, Kernel]", "dict[tuple[int, int], SplitKernel]")


def public_parameters(keep):
    """(module, function, parameter) for every public parameter p with keep(p)."""
    found = set()
    for module in package_modules():
        short = module.__name__.rpartition(".")[2]
        if short in UNCHECKED_MODULES:
            continue
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)
            if name in RECORDS or not callable(obj):
                continue
            try:
                params = inspect.signature(obj).parameters.values()
            except ValueError:  # an exception class has no signature
                continue
            found |= {(short, name, p.name) for p in params if keep(p)}
    return found


def public_int_parameters():
    """(module, function, parameter) for every parameter carrying integers."""
    return public_parameters(lambda p: p.annotation in (*INT_ANNOTATIONS, int))


def with_bad_integer(value, bad):
    """Each argument that puts bad in one integer slot of the valid value."""
    if not isinstance(value, dict):
        return [bad]
    ((key, term),) = value.items()
    if not isinstance(key, tuple):
        return [{bad: term}]
    return [{(*key[:i], bad, *key[i + 1 :]): term} for i in range(len(key))]


def valid_calls():
    """(module, function) -> keyword arguments of one call that succeeds."""
    grid = GridSpec(1.0, 3)
    f = random_symmetric_unit_kernel(grid, 2, 0, 0)
    w = SplitKernel(f, (1, 1))
    cfg = BMConfig(n=2, H=0.3, m_list=(4, 16))
    bm = {"n": 2, "H": 0.3, "K": 10}
    return {
        ("bounds", "C"): {"n": 3},
        ("bounds", "P"): {"n": 3, "u": 1},
        ("bounds", "P_prime"): {"n": 3, "u": 1.5},
        ("bounds", "catalan"): {"k": 3},
        ("bounds", "dc2_bound_from_gap"): {"n": 3, "gap": 0.1},
        ("bounds", "semicircle_moment"): {"t": 1.0, "k": 4},
        ("bounds", "u0"): {"n": 3},
        ("breuer_major", "BMConfig"): {"n": 2, "H": 0.3, "m_list": (4,), "truncation": 9},
        ("breuer_major", "alpha"): {"n": 2, "H": 0.3},
        ("breuer_major", "gap_fast"): {"cfg": cfg, "m": 4},
        ("breuer_major", "increment_kernels"): {"H": 0.3, "m": 4},
        ("breuer_major", "rho"): {"H": 0.3, "k": -2},
        ("breuer_major", "sigma2"): bm,
        ("breuer_major", "sigma2_tail_bound"): bm,
        ("breuer_major", "vm_kernel"): {"cfg": cfg, "m": 4},
        ("bichaos", "BiChaosElement"): {"grid": grid, "coeffs": {(1, 1): w}},
        ("chaos", "ChaosElement"): {"grid": grid, "coeffs": {1: cell_indicator(grid, 0)}},
        ("chaos", "from_kernel"): {"n": 2, "f": f},
        ("chaos", "moment"): {"X": from_kernel(2, f), "k": 3},
        ("chaos", "spectral_moments"): {"g": f, "k_max": 4},
        ("gradient", "bound_report"): {"n": 2, "f": f},
        ("gradient", "closed_form_lhs"): {"n": 2, "f": f},
        ("gradient", "gradient"): {"n": 2, "f": f, "s": 2},
        ("gradient", "gradient_quadratic_form"): {"n": 2, "f": f},
        ("gradient", "main_bound_lhs"): {"n": 2, "f": f},
        ("grid_kernel", "GridSpec"): {"total_length": 1.0, "cells": 3},
        ("grid_kernel", "Kernel"): {"grid": grid, "order": 2, "data": np.ones(9)},
        ("grid_kernel", "bicontract"): {"f": w, "g": w, "p": 1, "r": 1},
        ("grid_kernel", "cell_indicator"): {"grid": grid, "cell": 2},
        ("grid_kernel", "contract"): {"f": f, "g": f, "p": 1},
        ("grid_kernel", "slice_kernel"): {"f": f, "k": 2, "s": 1},
        ("grid_kernel", "zero_kernel"): {"grid": grid, "order": 2},
        ("workloads", "counterexample_kernel"): {"N": 2},
        ("workloads", "random_symmetric_unit_kernel"): {
            "grid": grid, "order": 2, "seed": 1, "index": 3
        },
    }


def test_every_public_integer_parameter_is_checked():
    found = public_int_parameters()
    calls = valid_calls()
    listed = {(module, name, p) for (module, name), kwargs in calls.items() for p in kwargs}
    # a new public integer parameter, or a new function with one, must be
    # added to the table
    assert {(module, name) for module, name, _ in found} == calls.keys()
    assert found <= listed
    for module, name, param in sorted(found):
        fn = getattr(import_module(f"wignerchaos.{module}"), name)
        kwargs = calls[(module, name)]
        fn(**kwargs)
        # a key's integers are named by their role, such as order or split[0]
        keyed = isinstance(kwargs[param], dict)
        message = "must be an integer" if keyed else f"^{param} must be an integer"
        for bad in (2.5, True, "2"):
            for value in with_bad_integer(kwargs[param], bad):
                with pytest.raises(ValueError, match=message):
                    fn(**{**kwargs, param: value})


# the cap of the over-cap table; every size in it would build an array of
# at least 2 MiB, so a traced peak under 1 MiB shows that none was built
SIZED_CAP = 2**10


def over_cap_calls():
    """(module, function) -> keyword arguments of one call over SIZED_CAP.

    Every public function whose size argument decides an allocation, each
    with an over-cap size and every other argument valid.  The arguments
    are built at the default cap.
    """
    small = zero_kernel(GridSpec(1.0, 32), 2)  # order 4 on 32 cells: 8 MiB
    w = SplitKernel(small, (1, 1))
    cfg = BMConfig(n=2, H=0.3, m_list=(4,), truncation=100)
    big = GridSpec(1.0, 512)  # order 2: 2 MiB
    entries = [0.0] * 512**2  # read as an array of 2 MiB
    return {
        ("breuer_major", "BMConfig"): {"n": 2, "H": 0.3, "m_list": (4, 2**13), "truncation": 100},
        ("breuer_major", "gap_fast"): {"cfg": cfg, "m": 2**13},  # a 4 MiB block buffer
        ("breuer_major", "increment_kernels"): {"H": 0.3, "m": 512},
        ("breuer_major", "sigma2"): {"n": 2, "H": 0.3, "K": 2**18},
        ("breuer_major", "vm_kernel"): {"cfg": cfg, "m": 512},
        # X^2 has order 4 on 32 cells: 8 MiB
        ("chaos", "moment"): {
            "X": from_kernel(2, Kernel(small.grid, 2, np.ones((32, 32)))), "k": 2
        },
        ("grid_kernel", "Kernel"): {"grid": big, "order": 2, "data": np.zeros(1)},
        ("grid_kernel", "bicontract"): {"f": w, "g": w, "p": 0, "r": 0},
        ("grid_kernel", "contract"): {"f": small, "g": small, "p": 0},
        ("grid_kernel", "kernel_from_bytes"): {"buf": kernel_to_bytes(zero_kernel(big, 2))},
        ("grid_kernel", "kernel_from_json"): {"obj": {
            "total_length": 1.0, "cells": 512, "order": 2, "re": entries, "im": entries
        }},
        ("grid_kernel", "zero_kernel"): {"grid": big, "order": 2},
        ("workloads", "counterexample_kernel"): {"N": 64},
        ("workloads", "random_symmetric_unit_kernel"): {
            "grid": GridSpec(1.0, 64), "order": 3, "seed": 0, "index": 0
        },
    }


@pytest.mark.parametrize("module, name", sorted(over_cap_calls()))
def test_every_sized_public_function_refuses_over_cap_before_allocating(
    module, name, monkeypatch
):
    # gap_fast, sigma2 and BMConfig used to accept any size
    source = import_module(f"wignerchaos.{module}")
    assert name in source.__all__
    kwargs = over_cap_calls()[(module, name)]
    monkeypatch.setattr(grid_kernel, "MAX_ENTRIES", SIZED_CAP)
    tracemalloc.start()
    try:
        with pytest.raises(MemoryCapError):
            getattr(source, name)(**kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


# the parameters that carry a tolerance, a Hurst index or a real argument
# of the bound constants
REAL_PARAMETERS = ("tol", "rtol", "atol", "H", "t", "gap", "lhs", "u")


def test_every_public_tolerance_and_hurst_parameter_is_checked():
    found = public_parameters(lambda p: p.name in REAL_PARAMETERS)
    f = random_symmetric_unit_kernel(GridSpec(1.0, 3), 2, 0, 0)
    calls = {
        **valid_calls(),
        ("bounds", "dc2_bound_from_lhs"): {"lhs": 0.1},
        ("chaos", "fourth_moment_gap"): {"f": f},
        ("grid_kernel", "is_mirror_symmetric"): {"f": f},
        ("grid_kernel", "is_symmetric"): {"f": f},
        ("grid_kernel", "kernels_close"): {"f": f, "g": f},
    }
    assert len(found) == 18
    for module, name, param in sorted(found):
        fn = getattr(import_module(f"wignerchaos.{module}"), name)
        kwargs = calls[(module, name)]
        fn(**kwargs)
        # a bool is refused too: True would pass as 1.0
        for bad in ("0.5", True, None):
            with pytest.raises(ValueError, match=f"^{param} must"):
                fn(**{**kwargs, param: bad})


# the boundary functions that turn the caller's data into a kernel
KERNEL_DOORS = {"constant_kernel", "kernel_from_bytes", "kernel_from_json"}


def kernel_calls(tree):
    """The Kernel(...) calls under an AST node, by name or as module.Kernel."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Kernel"
    ]


def test_kernel_constructor_is_called_only_at_the_boundary():
    stray, doors = [], set()
    for path in sorted((ROOT / "src" / "wignerchaos").glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name in KERNEL_DOORS:
                calls = kernel_calls(func)
                allowed |= set(map(id, calls))
                doors |= {func.name} if calls else set()
        stray += [(path.name, c.lineno) for c in kernel_calls(tree) if id(c) not in allowed]
    assert not stray, "package-built arrays enter through Kernel._wrap"
    assert doors == KERNEL_DOORS


def test_wrapped_results_equal_the_public_constructor_on_the_same_array():
    # the dtype, shape, contiguity and frozen state Kernel(...) would give,
    # and no array shared with an input
    grid = GridSpec(1.5, 3)
    rng = np.random.default_rng(5)
    made = []  # (kernel, input array it must not share)
    for order in range(4):
        x = rng.standard_normal((3,) * order)
        z = Kernel(grid, order, x + 1j * rng.standard_normal((3,) * order))
        real = Kernel(grid, order, x)
        with pytest.warns(UserWarning, match="dropping nonzero imaginary part"):
            made.append((symmetrize(z), z.data))
        made += [(zero_kernel(grid, order), None), (symmetrize(real), real.data)]
        made += [(adjoint(z), z.data), (adjoint(real), real.data)]
    made += [(cell_indicator(grid, 1), None), (cell_indicator(grid, 2, normalized=True), None)]
    for normalization in NORMALIZATIONS:
        cfg = BMConfig(n=3, H=0.6, m_list=(4,), truncation=100, normalization=normalization)
        made.append((vm_kernel(cfg, 5), None))
    rows = increment_kernels(0.3, 4)
    made += [(f, rows[0].data if i else None) for i, f in enumerate(rows)]
    made += [(random_symmetric_unit_kernel(grid, 3, 1, 2), None), (counterexample_kernel(3), None)]
    for f, source in made:
        ref = Kernel(f.grid, f.order, f.data)
        assert f.data.dtype == ref.data.dtype and f.data.shape == ref.data.shape
        assert np.array_equal(f.data, ref.data)
        assert f.data.flags.c_contiguous and not f.data.flags.writeable
        assert source is None or not np.shares_memory(f.data, source)
