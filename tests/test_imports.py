"""Stdlib ``ast`` scans of the source tree: every imported name is used,
every module-level name of the package has a caller outside the tests, and
every dataclass field of the package is read outside the tests.  Also: no
aansim process imports scipy, which the tests keep only as an oracle, and the
command lines run the same with scipy unimportable."""

import ast
import os
import subprocess
import sys
from pathlib import Path

from aansim import cli

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src/aansim", "tests")


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for each name an import binds that the module never reads.

    A name counts as read when it appears as an identifier, as the root of
    a string annotation, or in ``__all__``.  ``__future__`` imports are
    directives, not bindings.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # String annotations ("geometry.CameraIntrinsics") and __all__ entries.
            head = node.value.split(".")[0].split("[")[0]
            if head.isidentifier():
                used.add(head)
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_unused_import_is_caught():
    source = "import math\nimport numpy as np\n\nx = np.zeros(3)\n"
    assert unused_imports(source) == [(1, "math")]


def test_no_unused_imports():
    problems = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in SCANNED
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert problems == []


# Where a package name may be used; tests do not count as a production path.
PRODUCTION = ("src/aansim", "perfbench")
# Module-level names that only tests reach, each on purpose.
TEST_ONLY_ALLOWED: set[str] = set()


def module_definitions(source: str) -> list[tuple[str, int, int]]:
    """(name, first line, last line) of each module-level function, class and constant."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno, node.end_lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.extend(
                (t.id, node.lineno, node.end_lineno)
                for t in targets
                if isinstance(t, ast.Name) and not t.id.startswith("__")
            )
    return out


def name_uses(source: str) -> list[tuple[str, int]]:
    """(name, line) for each read of an identifier, attribute, imported name or
    identifier-like string (perfbench patches functions by attribute name)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, node.lineno))
        elif isinstance(node, ast.ImportFrom):
            out.extend((alias.name, node.lineno) for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.append((node.value, node.lineno))
    return out


def unreached_names(files: dict[str, str]) -> list[str]:
    """``module.name`` for each package definition that no file in ``files``
    (paths mapped to sources) names outside that definition."""
    uses: dict[str, list[tuple[str, int]]] = {}
    for path, source in files.items():
        for name, line in name_uses(source):
            uses.setdefault(name, []).append((path, line))
    flagged = []
    for path, source in files.items():
        if not path.startswith("src/aansim/"):
            continue
        for name, first, last in module_definitions(source):
            if not any(
                other != path or not first <= line <= last
                for other, line in uses.get(name, [])
            ):
                flagged.append(f"{Path(path).stem}.{name}")
    return flagged


def test_test_only_name_is_caught():
    files = {
        "src/aansim/a.py": "LIMIT = 3\n\ndef f(n):\n    return f(n - 1)\n\ndef g():\n    return LIMIT\n",
        "scripts/run.py": "from aansim.a import g\n",
    }
    # f only calls itself; LIMIT is read by g; g is imported by a script.
    assert unreached_names(files) == ["a.f"]


def test_every_package_name_has_a_production_caller():
    files = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for top in PRODUCTION
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    assert sorted(unreached_names(files)) == sorted(TEST_ONLY_ALLOWED)


# Dataclass fields that no production file reads, each on purpose.
UNREAD_FIELDS_ALLOWED: set[str] = set()


def dataclass_fields(source: str) -> list[tuple[str, str]]:
    """(class, field) for each annotated field of each module-level dataclass."""
    out = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.ClassDef):
            continue
        decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if not any(getattr(d, "id", getattr(d, "attr", None)) == "dataclass" for d in decorators):
            continue
        out.extend(
            (node.name, stmt.target.id)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        )
    return out


def field_reads(source: str) -> set[str]:
    """Every attribute name the module loads and every string it holds."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unread_fields(files: dict[str, str]) -> list[str]:
    """``module.Class.field`` for each package dataclass field whose name no
    file in ``files`` (paths mapped to sources) loads as an attribute or
    holds as a string."""
    reads = set().union(*(field_reads(source) for source in files.values()))
    return [
        f"{Path(path).stem}.{cls}.{name}"
        for path, source in files.items()
        if path.startswith("src/aansim/")
        for cls, name in dataclass_fields(source)
        if name not in reads
    ]


def test_unread_field_is_caught():
    files = {
        "src/aansim/a.py": (
            "from dataclasses import dataclass\n\n@dataclass(frozen=True)\n"
            "class P:\n    x: float\n    y: float\n    z: float\n\n"
            "def f(p):\n    p.z = 1.0\n    return p.x\n"
        ),
        "scripts/run.py": "def g(p):\n    return getattr(p, 'y')\n",
    }
    # x is loaded as an attribute and y named by a string; z is only written.
    assert unread_fields(files) == ["a.P.z"]


def test_every_dataclass_field_has_a_production_reader():
    files = {
        str(path.relative_to(ROOT)): path.read_text(encoding="utf-8")
        for top in PRODUCTION
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    assert sorted(unread_fields(files)) == sorted(UNREAD_FIELDS_ALLOWED)


# Loaded scipy modules after each stage of a fresh process: the package, the
# scenario and ten condition-A episodes, then one condition-B episode (costmap
# and foreground), then a report on all eleven sessions (ten A sessions reach
# the median interval).
_SCIPY_PROBE = """
import sys
import aansim.cli
from aansim import metrics
from aansim.episode import run_episode
from aansim.scenario import load_scenario

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] == "scipy")

scenario = load_scenario(sys.argv[1])
logs = [run_episode(scenario, "A", seed).log for seed in range(10)]
print(loaded())
logs.append(run_episode(scenario, "B", 0).log)
print(loaded())
metrics.render_report([metrics.session_metrics(log) for log in logs])
print(loaded())
"""

# Loaded scipy modules after ``aansim report`` in a fresh process.
_REPORT_PROBE = """
import contextlib
import io
import sys
from aansim import cli

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["report", "--logs", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
"""

# ``aansim ARGS...`` in a fresh process, with scipy unimportable when the
# first argument is ``block``.
_BLOCKED_CLI = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")

if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
from aansim import cli

sys.exit(cli.main(sys.argv[2:]))
"""


LAB_STUDY = str(ROOT / "scenarios" / "lab_study.json")


def _probe(source: str, *args: str, cwd=None) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", source, *args],
        capture_output=True, text=True, env=env, check=True, cwd=cwd,
    )
    return proc.stdout.splitlines()


def test_condition_a_imports_no_scipy_submodule():
    # Not condition A, nor a condition-B episode, nor a report loads any part
    # of scipy: scipy.ndimage would add about 20 MB and 0.2 s to the process,
    # and scipy.stats 44 MB and 0.5 s more.
    assert _probe(_SCIPY_PROBE, LAB_STUDY) == ["[]", "[]", "[]"]


def test_report_loads_no_scipy_stats(tmp_path, capsys):
    assert cli.main(["batch", "--scenario", LAB_STUDY, "--seeds", "2", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _probe(_REPORT_PROBE, str(tmp_path)) == ["[]"]


def test_command_lines_run_without_scipy(tmp_path):
    # batch, report and show print the same with scipy unimportable.  Each
    # side runs in its own directory, so relative paths print the same.
    commands = (
        ["batch", "--scenario", LAB_STUDY, "--seeds", "2", "--out", "study"],
        ["report", "--logs", "study"],
        ["show", os.path.join("study", "lab_study_B_seed0001.jsonl")],
    )
    for side in ("plain", "block"):
        (tmp_path / side).mkdir()
    for args in commands:
        plain, blocked = (_probe(_BLOCKED_CLI, side, *args, cwd=tmp_path / side)
                          for side in ("plain", "block"))
        assert blocked == plain and plain, args
