"""The benchmark scripts under perfbench/ import names from icnlab.  Their
source is read here, not imported, and every such name must exist on the
library, so a refactor that drops one fails in the test suite rather than
in a later benchmark run.  The per-call layer is also run once, since it
calls the library positionally."""
import ast
import importlib
import importlib.util
import json
import math
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _imports():
    """(file, module, name) for every name a perfbench file takes from
    icnlab; name is None for ``import icnlab...``."""
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [(node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                modules = [(a.name, None) for a in node.names]
            else:
                continue
            for module, name in modules:
                if module.split(".")[0] == "icnlab":
                    yield path.name, module, name


def _resolves(module: str, name: str | None) -> bool:
    """Whether ``from module import name`` (or ``import module``) works: the
    name is an attribute of the module or one of its submodules."""
    try:
        found = importlib.import_module(module)
        if name is not None and not hasattr(found, name):
            importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_perfbench_imports_resolve_on_the_library():
    imports = list(_imports())
    assert {"percall.py", "selftest.py"} <= {path for path, _, _ in imports}
    missing = [item for item in imports if not _resolves(*item[1:])]
    assert missing == []


def test_percall_measure_runs_on_the_library():
    # percall.measure() calls initial_condition, Problem.rhs and
    # SchemeConfig.step positionally; one run of it checks those calls still
    # work, and that it yields exactly the per-call metrics BENCHMARK.json
    # declares
    spec = importlib.util.spec_from_file_location(
        "percall", PERFBENCH / "percall.py")
    percall = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(percall)
    metrics = percall.measure()
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    per_call = ("problems.rhs_us.", "schemes.step_us.", "stability.point_us.")
    names = {m["name"] for m in declared["per_layer"]
             if m["name"].startswith(per_call)}
    assert len(names) == 18
    assert set(metrics) == names
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())
