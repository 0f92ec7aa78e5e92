"""The package's public surface."""

import ast
import doctest
import importlib
import importlib.util
import inspect
import io
import json
import pathlib
import pkgutil
import re
import subprocess
import sys
import tokenize

import pytest

import severi
from severi import cli, engine
from severi.series import RatSeries
from test_cli import child_env

ROOT = pathlib.Path(__file__).resolve().parents[1]

# the pipeline's entry points, the types of their parameters, and the
# exceptions they raise; everything else lives in the submodules
SURFACE = [
    "relative_severi", "severi_degree", "severi_table", "CacheStore",
    "fit_node_polynomial", "threshold", "threshold_report", "log_forms",
    "bell_polynomial", "reconstruct_from_log_forms", "RatSeries", "form_catalog",
    "sigma1", "extract_b_series", "gyz_predict", "plane_invariants", "Invariants",
    "CacheCorruption", "ParseError", "VersionMismatch", "InvalidState",
    "DegreeCheckFailed", "DegreeTooSmall",
    "NonIntegralPrediction", "SeriesError",
]


def test_every_export_resolves():
    missing = [name for name in severi.__all__ if not hasattr(severi, name)]
    assert missing == []


def test_exports_are_unique():
    assert len(severi.__all__) == len(set(severi.__all__))


def test_exports_are_exactly_the_surface():
    assert sorted(severi.__all__) == sorted(SURFACE)


def test_unknown_names_are_attribute_errors():
    with pytest.raises(AttributeError, match="no_such_name"):
        severi.no_such_name
    assert set(severi.__all__) <= set(dir(severi))


def run_fresh(script: str) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=child_env()
    )
    assert proc.returncode == 0, proc.stderr
    return proc


NODEPOLY_MODULES = [
    "severi", "severi.cli", "severi.engine", "severi.nodepoly", "severi.series",
    "severi.tangency",
]
# gyz reads its plane log through nodepoly.quadratic_log
GYZ_MODULES = sorted([*NODEPOLY_MODULES, "severi.forms", "severi.gyz"])


@pytest.mark.parametrize("argv, out, modules, notes", [
    (["count", "--d", "5", "--delta", "2", "--no-cache"],
     {"d": 5, "delta": 2, "value": "882"},
     ["severi", "severi.cli", "severi.engine", "severi.tangency"], 0),
    # past degree lo + 2 the count is read off engine.node_values
    (["count", "--d", "12", "--delta", "2", "--no-cache"],
     {"d": 12, "delta": 2, "value": "63525"},
     ["severi", "severi.cli", "severi.engine", "severi.tangency"], 0),
    (["threshold", "--delta", "2", "--no-cache"],
     {"delta": 2, "threshold": 1}, NODEPOLY_MODULES, 0),
    (["bell", "--delta", "2", "--values", "1,2"],
     {"delta": 2, "values": ["1", "2"], "value": "3"}, NODEPOLY_MODULES, 0),
    (["logforms", "--deltamax", "2", "--no-cache"],
     {"deltamax": 2, "forms": [{"kappa": 1, "a2": "3", "a1": "-6", "a0": "3"},
                               {"kappa": 2, "a2": "-42", "a1": "117", "a0": "-75"}]},
     NODEPOLY_MODULES, 0),
    (["bseries", "--order", "2", "--dlist", "3,4", "--no-cache"],
     {"order": 2, "b1": ["1", "-1", "-5"], "b2": ["1", "5", "2"], "d_used": [3, 4],
      "consistent": True, "integral": True}, GYZ_MODULES, 1),
    (["predict", "--d", "5", "--order", "2", "--dlist", "3,4", "--no-cache"],
     {"d": 5, "order": 2, "values": ["1", "48", "882"]}, GYZ_MODULES, 0),
    # forms takes sigma1 from the engine, which the CLI loads anyway
    (["forms", "--order", "2"],
     {"order": 2, "u": ["0", "1", "6"], "b3": ["1", "6", "12"], "b4": ["1", "-12", "0"],
      "delta_form": ["0", "1", "-24"]},
     ["severi", "severi.cli", "severi.engine", "severi.forms", "severi.series",
      "severi.tangency"], 0),
], ids=["count", "count-past-delta-plus-3", "threshold", "bell", "logforms", "bseries",
        "predict", "forms"])
def test_subcommand_loads_only_what_it_uses(argv, out, modules, notes):
    # a name or a subcommand loads its submodule on first use, not before
    proc = run_fresh(
        "import json, sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('severi'))\n"
        "import severi\n"
        "before = loaded()\n"
        f"severi.cli.main({argv!r})\n"
        "print(json.dumps([before, loaded()]), file=sys.stderr)\n"
    )
    assert json.loads(proc.stdout) == out
    # stderr holds the subcommand's `notes` progress lines, then the module lists
    *progress, loaded = proc.stderr.split("\n", notes)
    assert len(progress) == notes
    assert json.loads(loaded) == [["severi"], modules]


def test_submodules_resolve_as_package_attributes():
    modules = ["cli", "engine", "forms", "gyz", "nodepoly", "series", "tangency"]
    run_fresh(
        "import importlib, severi\n"
        f"for name in {modules!r}:\n"
        "    assert getattr(severi, name) is importlib.import_module('severi.' + name), name\n"
        "assert severi.engine.cache_load and severi.threshold is severi.nodepoly.threshold\n"
    )


def test_exit_2_errors_share_one_base_class():
    errors = [severi.CacheCorruption, severi.NonIntegralPrediction, severi.DegreeCheckFailed]
    assert all(issubclass(e, engine.InternalInconsistency) for e in errors)
    assert issubclass(engine.InternalInconsistency, RuntimeError)


def names_imported_from_severi(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "severi"
        for alias in node.names
    }


def test_demos_and_readme_import_only_exported_names():
    sources = [path.read_text() for path in sorted((ROOT / "demos").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    sources += re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    used = set().union(*(names_imported_from_severi(source) for source in sources))
    assert "severi_degree" in used  # the parse found the imports
    assert sorted(used - set(severi.__all__)) == []


def test_readme_submodule_names_resolve():
    # "`severi.X` (`a`, `b`, ...)" in the README names what X holds
    readme = (ROOT / "README.md").read_text()
    groups = re.findall(r"`severi\.(\w+)` \(([^)]*)\)", readme)
    assert len(groups) >= 5  # the parse found the submodule list
    missing = [
        f"{module}.{name}"
        for module, names in groups
        for name in re.findall(r"`(\w+)`", names)
        if not hasattr(importlib.import_module(f"severi.{module}"), name)
    ]
    assert missing == []


def test_doctests_pass():
    failed = attempted = 0
    for info in pkgutil.iter_modules(severi.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"severi.{info.name}")
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted >= 1


def test_modules_use_every_name_they_import():
    # a stdlib stand-in for a linter's unused-import rule; __init__ imports
    # to re-export, and __future__ imports change the compiler, not names
    unused, checked = [], 0
    for path in sorted((ROOT / "src" / "severi").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, ast.Import)
            or isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names
        ]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}: {name}" for name in bound if name not in used]
        checked += len(bound)
    assert checked >= 20  # the walk found the imports
    assert unused == []


def test_private_names_in_docs_resolve():
    # a `_name` in a docstring or comment of a module under src/ names an
    # attribute of that module or of a class in it, so a rename that leaves
    # the prose behind fails here
    stale, checked = [], 0
    for path in sorted((ROOT / "src" / "severi").glob("*.py")):
        source = path.read_text()
        texts = [
            ast.get_docstring(node) or ""
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        texts += [
            token.string
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.COMMENT
        ]
        module = importlib.import_module(f"severi.{path.stem}")
        owners = [module, *(c for _, c in inspect.getmembers(module, inspect.isclass)
                            if c.__module__ == module.__name__)]
        for name in set(re.findall(r"(?<!\w)_[A-Za-z]\w*", "\n".join(texts))):
            checked += 1
            if not any(hasattr(owner, name) for owner in owners):
                stale.append(f"{path.name}: {name}")
    assert checked >= 5  # the walk found the engine's names
    assert sorted(stale) == []


def _perfbench_module(name):
    """perfbench/<name>.py loaded by path, as tier-1 does not collect perfbench/."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_patch_targets_resolve():
    # perfbench/tracing.py patches severi's functions by name, and tier-1
    # does not collect perfbench/, so a rename would go unnoticed there
    tracing = _perfbench_module("tracing")
    targets = [t[:2] for t in (*tracing.PLAIN_TARGETS, *tracing.EVAL_TARGETS)]
    targets += [("engine", name) for name in ("cache_load", "cache_save", "default_cache")]
    assert len(targets) >= 14  # the module's tables were read
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not hasattr(importlib.import_module(f"severi.{module}"), attr)
    ]
    missing += [name for name in tracing.SERIES_METHODS if name not in RatSeries.__dict__]
    assert missing == []


def test_benchmark_cli_queries_parse():
    # perfbench/workloads.py sends these argvs to cli.main, with --no-cache
    # for the reference answers and --cache for the timed runs; a flag the
    # CLI dropped would only show as a wrong output of the benchmark
    workloads = _perfbench_module("workloads")
    parser = cli.build_parser()
    commands = set()
    for seed in (0, 1, 7):
        for p in range(3):
            for _, argv in workloads.cli_queries(seed, p, 16, 8, 15, 5):
                for tail in (["--no-cache"], ["--cache", "severi.cache"]):
                    commands.add(parser.parse_args(argv + tail).command)
    assert commands == {"count", "table", "nodepoly", "threshold", "predict"}


def test_benchmark_workload_names_resolve():
    # perfbench/workloads.py calls severi as sev.<module>.<name> and through
    # RatSeries.<name>; tier-1 does not collect perfbench/, so a name removed
    # from src/ would only show when the benchmark runs
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id == "RatSeries":
            names.add(("RatSeries", node.attr))
        elif isinstance(owner, ast.Attribute) and (
            isinstance(owner.value, ast.Name) and owner.value.id == "sev"
            or isinstance(owner.value, ast.Attribute) and owner.value.attr == "sev"
        ):
            names.add((owner.attr, node.attr))
    assert {("engine", "CacheStore"), ("engine", "cache_load"), ("series", "RatSeries"),
            ("RatSeries", "one"), ("RatSeries", "identity")} <= names
    missing = [
        f"{owner}.{attr}"
        for owner, attr in sorted(names)
        if not hasattr(RatSeries if owner == "RatSeries"
                       else importlib.import_module(f"severi.{owner}"), attr)
    ]
    assert missing == []
