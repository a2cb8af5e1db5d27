"""Per-layer tracing of the package from outside it.

The package's modules import functions by name, so one function has
several module-level bindings (``bichaos.sharp_multiply``,
``gradient.sharp_multiply``, ``wignerchaos.sharp_multiply``).  ``install``
replaces every binding of each traced function, and the traced methods on
their classes, with a timing wrapper; ``uninstall`` puts the originals
back.  A layer's self time is its span minus the spans of the traced calls
it made.  Byte and flop counts are computed from shapes, not measured.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from importlib import import_module
from time import perf_counter

# import_module, because the package re-exports the function `gradient`
# under the name of its module
bichaos = import_module("wignerchaos.bichaos")
bounds = import_module("wignerchaos.bounds")
breuer_major = import_module("wignerchaos.breuer_major")
chaos = import_module("wignerchaos.chaos")
cli = import_module("wignerchaos.cli")
gradient = import_module("wignerchaos.gradient")
grid_kernel = import_module("wignerchaos.grid_kernel")

ENTRY_BYTES = 16  # complex128


def _tensor_out(layer):
    def hook(tracer, args, kwargs, result, elapsed):
        entries = getattr(result, "kernel", result).data.size
        tracer.counts[f"{layer}.out_bytes"] += entries * ENTRY_BYTES
        tracer.peak_entries = max(tracer.peak_entries, entries)
    return hook


def _pruned(module):
    def hook(tracer, args, kwargs, result, elapsed):
        offered = args[2] if len(args) > 2 else kwargs["coeffs"]
        tracer.counts[f"{module}.offered"] += len(offered)
        tracer.counts[f"{module}.kept"] += len(args[0].coeffs)
    return hook


def _lhs_by_kind(tracer, args, kwargs, result, elapsed):
    tracer.counts[f"gradient.main_bound_lhs.total_s.{tracer.kind}"] += elapsed


def _gap_flops(tracer, args, kwargs, result, elapsed):
    cfg, m = args[0], args[1]
    tracer.counts["breuer_major.gap_fast.flops"] += 2 * (cfg.n - 1) * m**3


def _cli_out_bytes(tracer, args, kwargs, result, elapsed):
    argv = list(args[0] if args else kwargs["argv"])
    if "--out" in argv:
        tracer.counts["cli.out_bytes"] += os.path.getsize(argv[argv.index("--out") + 1])


# (layer, owner, attribute, hook, reported statistics)
SPANS = [
    ("grid_kernel.kernel_init", grid_kernel.Kernel, "__init__", None, ("calls", "self_s")),
    ("grid_kernel.contract", grid_kernel, "contract", _tensor_out("grid_kernel.contract"),
     ("calls", "self_s")),
    ("grid_kernel.bicontract", grid_kernel, "bicontract", _tensor_out("grid_kernel.bicontract"),
     ("calls", "self_s")),
    ("grid_kernel.slice_kernel", grid_kernel, "slice_kernel", None, ("calls", "self_s")),
    ("chaos.element_init", chaos.ChaosElement, "__init__", _pruned("chaos"), ("calls",)),
    ("chaos.multiply", chaos, "multiply", None, ("calls", "self_s")),
    ("chaos.trace_of_product", chaos, "trace_of_product", None, ("self_s",)),
    ("chaos.oracle_moment", chaos, "oracle_moment", None, ("self_s",)),
    ("chaos.fourth_moment_gap", chaos, "fourth_moment_gap", None, ("calls", "self_s")),
    ("chaos.spectral_moments", chaos, "spectral_moments", None, ("self_s",)),
    ("bichaos.element_init", bichaos.BiChaosElement, "__init__", _pruned("bichaos"), ()),
    ("bichaos.sharp_multiply", bichaos, "sharp_multiply", None, ("calls", "self_s")),
    ("bichaos.adjoint", bichaos, "adjoint", None, ("self_s",)),
    ("bichaos.element_add", bichaos.BiChaosElement, "__add__", None, ("calls", "self_s")),
    ("bichaos.norm2", bichaos, "norm2", None, ("self_s",)),
    ("gradient.gradient", gradient, "gradient", None, ("calls", "self_s")),
    ("gradient.gradient_quadratic_form", gradient, "gradient_quadratic_form", None, ("self_s",)),
    ("gradient.main_bound_lhs", gradient, "main_bound_lhs", _lhs_by_kind, ()),
    ("gradient.closed_form_lhs", gradient, "closed_form_lhs", None, ("self_s",)),
    ("gradient.bound_report", gradient, "bound_report", None, ("self_s",)),
    ("bounds.C", bounds, "C", None, ("calls", "self_s")),
    ("breuer_major.gap_fast", breuer_major, "gap_fast", _gap_flops, ("calls", "self_s")),
    ("breuer_major.increment_kernels", breuer_major, "increment_kernels", None, ("self_s",)),
    ("breuer_major.vm_kernel", breuer_major, "vm_kernel", None, ("self_s",)),
    ("breuer_major.rate_fit", breuer_major, "rate_fit", None, ("self_s",)),
    ("cli.main", cli, "main", _cli_out_bytes, ("calls", "self_s")),
]

# counters reported per item, with their units
COUNTS = {
    "grid_kernel.contract.out_bytes": "B/item",
    "grid_kernel.bicontract.out_bytes": "B/item",
    "grid_kernel.memcap_refusals": "1/item",
    "gradient.main_bound_lhs.total_s.sym": "s/item",
    "gradient.main_bound_lhs.total_s.mirror": "s/item",
    "breuer_major.gap_fast.flops": "flop/item",
    "cli.out_bytes": "B/item",
}

UNITS = {"calls": "1/item", "self_s": "s/item"}


class Tracer:
    """Spans and counters of the traced layers, accumulated across rounds."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.peak_entries = 0
        self.kind = None  # set by the runner before each item
        self._child_s = []  # one accumulator per open span
        self._undo = []

    def _wrap(self, layer, fn, hook):
        def traced(*args, **kwargs):
            self._child_s.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except grid_kernel.MemoryCapError:
                if layer.startswith("grid_kernel."):
                    self.counts["grid_kernel.memcap_refusals"] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += elapsed
            if hook is not None:
                hook(self, args, kwargs, result, elapsed)
            return result

        return traced

    def install(self):
        modules = [
            mod for name, mod in sys.modules.items()
            if name == "wignerchaos" or name.startswith("wignerchaos.")
        ]
        for layer, owner, attr, hook, _ in SPANS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(layer, original, hook)
            owners = [owner] if isinstance(owner, type) else modules
            for target in owners:
                for name, value in list(vars(target).items()):
                    if value is original:
                        setattr(target, name, wrapper)
                        self._undo.append((target, name, original))

    def uninstall(self):
        while self._undo:
            target, name, original = self._undo.pop()
            setattr(target, name, original)

    def metrics(self, items: int) -> dict:
        """Every per-layer metric, as ``{name: (value, unit)}``, per traced item."""
        out = {}
        for layer, _, _, _, stats in SPANS:
            for stat in stats:
                table = self.calls if stat == "calls" else self.self_s
                out[f"{layer}.{stat}"] = (table[layer] / items, UNITS[stat])
        for name, unit in COUNTS.items():
            out[name] = (self.counts[name] / items, unit)
        out["grid_kernel.peak_entries_frac"] = (
            self.peak_entries / grid_kernel.MAX_ENTRIES, "ratio"
        )
        for module in ("chaos", "bichaos"):
            offered = self.counts[f"{module}.offered"]
            kept = self.counts[f"{module}.kept"]
            # 1 when nothing was offered: nothing was dropped
            out[f"{module}.prune_keep_ratio"] = (kept / offered if offered else 1.0, "ratio")
        return out
