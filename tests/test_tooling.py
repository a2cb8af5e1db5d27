"""Guards for the tools that reach into the package from outside it.

``perfbench/tracing.py`` wraps module bindings by name, so a deleted or
renamed function breaks ``perfbench/run.py --trace 1`` only when the
benchmark runs.  These tests catch that, and a stale ``__all__`` or
re-export, in the tier-1 suite.  The last test holds every public integer
parameter, and every integer in the keys of a public dict parameter, to the
package's one integer check.
"""

import ast
import importlib.util
import inspect
import pkgutil
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import wignerchaos
from wignerchaos.breuer_major import BMConfig
from wignerchaos.chaos import from_kernel
from wignerchaos.grid_kernel import GridSpec, SplitKernel, cell_indicator
from wignerchaos.workloads import random_symmetric_unit_kernel

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


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_uninstall_restores_every_binding():
    tracing = load_tracing()
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


# cli's boundary is argv, checked by its converters; the records are results
UNCHECKED_MODULES = {"cli"}
RECORDS = {"ConstantsRow", "BoundReport", "BMResult"}


# annotations of parameters that carry integers: the integer itself, or
# the keys of a dict, one integer or a pair of integers per key
INT_ANNOTATIONS = ("int", "dict[int, Kernel]", "dict[tuple[int, int], SplitKernel]")


def public_int_parameters():
    """(module, function, parameter) for every parameter carrying integers."""
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
            found |= {
                (short, name, p.name)
                for p in params
                if p.annotation in (*INT_ANNOTATIONS, int)
            }
    return found


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
        ("breuer_major", "chebyshev_U"): {"n": 3, "x": 0.5},
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
        ("gradient", "coefficient_c"): {"u": 1, "v": 0, "n": 3},
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
