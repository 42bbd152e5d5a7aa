"""Static checks of the package source and of the names the benchmark
harness binds in it, and a run on the declared runtime dependencies only."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

from polyshannon import cli
from polyshannon.spherical import ShannonPolysplineKernel

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polyshannon"
BENCHMARKS = ROOT / "benchmarks"


def _unused_imports(source: str) -> list[str]:
    """Names the module imports but neither reads nor lists in its __all__."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update(
                alias.asname or alias.name.split(".")[0] for alias in node.names
            )
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_unused_imports():
    assert _unused_imports("import os, sys\nfrom math import pi\nprint(sys)\n") == [
        "os", "pi",
    ]
    assert _unused_imports("from x import a\n__all__ = ['a']\n") == []
    unused = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _unused_imports(path.read_text()))
    }
    assert unused == {}


def _unshared_caches(source: str) -> list[int]:
    """Lines using functools' lru_cache or cache other than as the decorator
    of a module-level function, whose cache_clear a cold run can reach."""
    tree = ast.parse(source)
    names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names if alias.name in ("lru_cache", "cache")
    }
    allowed = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                allowed.add(id(dec.func if isinstance(dec, ast.Call) else dec))
    lines = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Name) and node.id in names or (
            isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
            and isinstance(node.value, ast.Name) and node.value.id == "functools"
        ):
            lines.append(node.lineno)
    return lines


def test_every_lru_cache_is_module_level():
    assert _unshared_caches(
        "from functools import lru_cache\nimport functools\n"
        "@lru_cache(maxsize=None)\ndef f(x): pass\n@functools.cache\ndef g(): pass\n"
        "cache = {}\n"
    ) == []
    assert _unshared_caches(
        "from functools import lru_cache\nimport functools\n"
        "class A:\n    @lru_cache\n    def m(self): pass\n"
        "def f():\n    @functools.lru_cache(maxsize=None)\n    def g(): pass\n"
        "h = lru_cache(maxsize=None)(len)\n"
    ) == [4, 7, 9]
    misplaced = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if (lines := _unshared_caches(path.read_text()))
    }
    assert misplaced == {}


#: the package modules the benchmark harness reads attributes of
BENCHMARKED = ("cli", "shannon1d", "spherical", "strip", "tables", "tbspline")


def _library_names(source: str) -> set[str]:
    """Every ``polyshannon.<module>.<attr>...`` the source reads as
    ``<module>.<attr>...`` for a module of :data:`BENCHMARKED`, or imports
    with ``from polyshannon... import``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("polyshannon"):
            names.update(f"{node.module}.{alias.name}" for alias in node.names)
        chain, base = [], node
        while isinstance(base, ast.Attribute):
            chain.append(base.attr)
            base = base.value
        if chain and isinstance(base, ast.Name) and base.id in BENCHMARKED:
            names.add(".".join(["polyshannon", base.id, *reversed(chain)]))
    return names


def _resolves(dotted: str) -> bool:
    """Whether the dotted name is a module, or an attribute path of one."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for depth, attr in enumerate(parts[1:], start=2):
        if not hasattr(obj, attr):
            try:  # a submodule not imported yet
                importlib.import_module(".".join(parts[:depth]))
            except ImportError:
                return False
        obj = getattr(obj, attr)
    return True


def _load(path: Path):
    """The module at ``path``, run under a private name (registered while it
    runs, as its dataclasses need)."""
    name = f"_benchmark_{path.stem}"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_every_library_name_the_benchmark_binds_resolves():
    assert _library_names(
        "from polyshannon.spectrum import radial_spectrum\n"
        "cli.main(x)\nshannon1d.KernelTable.load(p)\nspherical.f(x).y\nother.z\n"
    ) == {"polyshannon.spectrum.radial_spectrum", "polyshannon.cli.main",
          "polyshannon.shannon1d.KernelTable", "polyshannon.shannon1d.KernelTable.load",
          "polyshannon.spherical.f"}
    assert _resolves("polyshannon.shannon1d.KernelTable.load")
    assert not _resolves("polyshannon.shannon1d.KernelTable.no_such_method")
    assert not _resolves("polyshannon.no_such_module.name")

    importlib.import_module("polyshannon.cli")  # every module the table names
    layers = _load(BENCHMARKS / "tracer.py")._layer_table()
    names = {f"{module}.{path}" for module, path, *_ in layers}
    for name in ("tracer.py", "workloads.py"):
        names |= _library_names((BENCHMARKS / name).read_text())
    assert [name for name in sorted(names) if not _resolves(name)] == []


#: the modules each of whose public names needs a caller outside tests/
CALLED = ("spectrum", "tbspline", "shannon1d", "spherical", "strip")

#: public names with no caller outside tests/ yet: the ROADMAP item that
#: gives each one
UNCALLED = {
    "ef_contour": "item 16, the ef/contour verify row",
    "kernel_fourier": "item 16, the cross-check verify rows",
    "analyze_sphere": "items 4 and 11, point values on the spheres",
    "synthesize_sphere": "items 4 and 11, point values on the spheres",
    "analyze_torus": "items 4 and 11, point values on the planes",
    "synthesize_torus": "items 4 and 11, point values on the planes",
}


def _read_names(source: str) -> set[str]:
    """Every name the source reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_name_has_a_caller_outside_the_tests():
    assert _read_names("import m\nx = m.f(g)\nm.y = 1\n'h'\n") == {"m", "f", "g"}
    quick_start = re.search(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                            re.S | re.M).group(1)
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"), *BENCHMARKS.glob("*.py")]
    sources = [path.read_text() for path in paths if path.name != "__init__.py"]
    read = set().union(*map(_read_names, [*sources, quick_start]))
    importlib.import_module("polyshannon.cli")  # every module the layer table names
    read |= {path.split(".")[0] for _, path, *_ in _load(BENCHMARKS / "tracer.py")._layer_table()}
    uncalled = [
        name for module in CALLED
        for name in importlib.import_module(f"polyshannon.{module}").__all__
        if name not in read
    ]
    assert sorted(uncalled) == sorted(UNCALLED)


def _absolute_imports(source: str) -> set[str]:
    """Top-level names of every absolute import in the source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def _runtime_dependencies(pyproject: str) -> set[str]:
    """Import names of ``[project].dependencies`` (flat TOML, read by hand)."""
    project = re.search(r"^\[project\]$(.*?)^\[", pyproject, re.M | re.S).group(1)
    listed = re.search(r"^dependencies = \[(.*?)\]", project, re.M | re.S).group(1)
    return {
        re.match(r"[\w.-]+", req).group().lower().replace("-", "_")
        for req in re.findall(r'"([^"]+)"', listed)
    }


def test_every_import_is_stdlib_or_a_declared_dependency():
    assert _absolute_imports(
        "import os.path, numpy as np\nfrom scipy.special import f\n"
        "from . import x\ndef g():\n    import mpmath\n"
    ) == {"os", "numpy", "scipy", "mpmath"}
    declared = _runtime_dependencies((ROOT / "pyproject.toml").read_text())
    assert declared == {"numpy", "mpmath"}
    undeclared = {
        path.name: sorted(names)
        for path in sorted(PACKAGE.glob("*.py"))
        if (names := _absolute_imports(path.read_text())
            - set(sys.stdlib_module_names) - declared - {"polyshannon"})
    }
    assert undeclared == {}


_WITHOUT_SCIPY = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any import of scipy now fails
import polyshannon
for info in pkgutil.iter_modules(polyshannon.__path__):
    importlib.import_module(f"polyshannon.{info.name}")
from polyshannon import cli
from polyshannon.spherical import ShannonPolysplineKernel
print(repr(ShannonPolysplineKernel.build(2).eval(1.3, 0.4)))
sys.exit(cli.main(["verify", "--seed", "21", "--out", sys.argv[1]]))
"""


def test_package_runs_without_scipy(tmp_path, capsys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")])
    )
    res = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path / "bare")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    value = res.stdout.splitlines()[0]
    assert value == repr(ShannonPolysplineKernel.build(2).eval(1.3, 0.4))
    assert cli.main(["verify", "--seed", "21", "--out", str(tmp_path / "full")]) == 0
    capsys.readouterr()
    for name in ("verify-report.csv", "verify-report.txt"):
        bare, full = ((tmp_path / run / name).read_bytes() for run in ("bare", "full"))
        assert bare == full, name
