import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import mixzone


def test_every_exported_name_resolves():
    # the package's __all__ and each module's name only attributes that exist
    modules = [mixzone] + [importlib.import_module(f"mixzone.{info.name}")
                           for info in pkgutil.iter_modules(mixzone.__path__)]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing attributes: {missing}"


# the only private names one module of the package may import from another: none
PRIVATE_IMPORTS = set()


def test_no_module_imports_private_names_beyond_the_allowlist():
    # every ``from .<module> import _<name>`` in the package's sources must be
    # on PRIVATE_IMPORTS (dunders such as __version__ are public)
    found = set()
    for path in sorted(Path(mixzone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module and (
                    node.level or node.module.startswith("mixzone.")):
                module = node.module.rpartition(".")[2]
                found |= {(module, alias.name) for alias in node.names
                          if alias.name.startswith("_") and not alias.name.endswith("__")}
    assert found <= PRIVATE_IMPORTS, f"private cross-module imports: {sorted(found - PRIVATE_IMPORTS)}"


def test_no_module_reads_the_environment():
    # no speed constant or path choice can be tuned from outside the code:
    # no module under src/mixzone names os.environ or os.getenv, however imported
    found = []
    for path in sorted(Path(mixzone.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and (
                    node.value.id == "os" and node.attr in ("environ", "getenv")):
                found.append(f"{path.name}:{node.lineno} os.{node.attr}")
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno} from os import {alias.name}"
                          for alias in node.names if alias.name in ("environ", "getenv")]
    assert not found, f"environment reads: {found}"


def _names_outside(module: str, names: tuple[str, ...]) -> list[str]:
    """Each identifier, attribute or imported name in ``names`` in the package's other modules."""
    found = []
    for path in sorted(Path(mixzone.__file__).parent.glob("*.py")):
        if path.name == module:
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom):
                named = [alias.name for alias in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                named = [node.id if isinstance(node, ast.Name) else node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in named if name in names]
    return found


def test_one_slope_interpolator():
    # the Chebyshev nodes and the barycentric formula in the slope are
    # spectral's alone: every other module takes its slope tables from
    # spectral.slope_interpolated, so no second interpolator can grow
    found = _names_outside("spectral.py", ("barycentric", "slope_nodes"))
    assert not found, f"slope interpolation outside spectral: {found}"


def test_one_slope_ellipse():
    # the Bernstein ellipse of the slope tables is spectral's alone: no other
    # module names a *SEMI_MINOR constant or passes chebyshev_degree or
    # slope_nodes a semi-minor axis (their third argument), so every table in
    # the slope takes one degree rule
    found = []
    for path in sorted(Path(mixzone.__file__).parent.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            named = []
            if isinstance(node, ast.ImportFrom):
                named = [alias.name for alias in node.names]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                named = [node.id if isinstance(node, ast.Name) else node.attr]
            found += [f"{path.name}:{node.lineno} {name}" for name in named
                      if name.endswith("SEMI_MINOR")]
            if isinstance(node, ast.Call):
                func = node.func.id if isinstance(node.func, ast.Name) else getattr(
                    node.func, "attr", None)
                if func in ("chebyshev_degree", "slope_nodes") and (
                        len(node.args) > 2 or any(kw.arg == "semi_minor" for kw in node.keywords)):
                    found.append(f"{path.name}:{node.lineno} {func} with an axis")
    assert not found, f"slope-table axes outside spectral: {found}"


def test_one_block_size_rule():
    # BLOCK_ENTRIES is grid's alone: every blocked pass takes its rows from
    # grid.block_rows, so no module grows a second block-size rule
    found = _names_outside("grid.py", ("BLOCK_ENTRIES",))
    assert not found, f"block sizes outside grid: {found}"


def test_bench_tracer_targets_resolve():
    # the benchmark's --trace wraps each (module, function) of its TARGETS by
    # name and imports each of its MODULES; a name deleted from the package
    # would make Tracer.install raise, so every one must resolve
    path = Path(__file__).parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    modules = {name: importlib.import_module(f"mixzone.{name}") for name in tracer.MODULES}
    missing = [f"{module}.{name}" for module, name, _ in tracer.TARGETS
               if not callable(getattr(modules.get(module), name, None))]
    assert not missing, f"tracer targets missing from mixzone: {missing}"
