"""Guards for the tools that reach into the package from outside it.

``perfbench/tracing.py`` wraps module bindings by name, so a deleted or
renamed function breaks ``perfbench/run.py --trace 1`` only when the
benchmark runs.  These tests catch that, and a stale ``__all__`` or
re-export, in the tier-1 suite.
"""

import ast
import importlib.util
import pkgutil
from importlib import import_module
from pathlib import Path

import wignerchaos

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
