"""What the library imports, and when.

No linter ships with the toolchain, so the first checks walk each
module's syntax tree: a name bound by ``import`` or ``from ... import``
must be read somewhere in the module (annotations count; ``__init__.py``
is exempt, as its imports are re-exports), the modules that ``tm
check`` runs import no output module when they load, and neither they
nor ``simulate`` import ``dataclasses``.  The ``tm`` console script and
``python -m tmflow.cli`` call the same function.  Every annotation in the
package resolves under ``typing.get_type_hints``, and every function in
``__all__`` has a reader besides the tests, and each of its defaulted
parameters a caller that passes it.  No module but ``model`` walks the
machine tree or resolves a stage path itself.

The rest run fresh interpreters: ``import tmflow`` loads ``simulate``,
only the output formats add ``jsonio`` (with ``json``) or ``dot`` to a
``tm`` command, no command loads ``dataclasses`` or ``inspect``, nor
``argparse``, ``gettext`` or ``locale`` (``cli`` reads its command line
from its own table), and the package's ``simulate`` stays the function,
not the submodule, whatever was imported first.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import tomllib
import types
import typing
from functools import cached_property
from pathlib import Path

import pytest

import tmflow

SRC = Path(__file__).resolve().parent.parent / "src" / "tmflow"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ROOT = SRC.parent.parent

# The modules ``tm check`` loads besides ``simulate``, and what none of
# them may load eagerly.
CHECK_PATH = ["__init__", "diagnostics", "exprs", "model", "behavior", "parser",
              "validate", "cli"]
DEFERRED = {"json", ".jsonio", ".dot"}
# The modules whose records are built without ``dataclasses``.
RECORD_MODULES = CHECK_PATH + ["simulate"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def module_level_imports(source: str) -> set[str]:
    """The modules a source imports when it loads: outside any function
    or class body.  A module of this package is named ``.name``."""
    found: set[str] = set()
    pending = list(ast.parse(source).body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level and node.module is None:  # from . import a, b
                found.update("." + alias.name for alias in node.names)
            elif node.level:
                found.add("." + node.module)
            elif node.module.startswith("tmflow."):
                found.add(node.module[len("tmflow"):])
            else:
                found.add(node.module)
        else:
            pending.extend(ast.iter_child_nodes(node))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom json import dumps, loads\nloads('1')\n") == [
        "line 1: os", "line 2: dumps"]
    assert unused_imports("from __future__ import annotations\n"
                          "from json import JSONDecoder\n"
                          "def f(x: JSONDecoder) -> None: ...\n") == []
    assert unused_imports("def f():\n    from . import jsonio\n    return jsonio\n") == []


@pytest.mark.parametrize("name", CHECK_PATH)
def test_check_path_defers_output_and_simulation(name):
    source = (SRC / f"{name}.py").read_text(encoding="utf-8")
    assert module_level_imports(source) & DEFERRED == set()


@pytest.mark.parametrize("name", RECORD_MODULES)
def test_records_load_no_dataclasses(name):
    source = (SRC / f"{name}.py").read_text(encoding="utf-8")
    assert "dataclasses" not in module_level_imports(source)


def main_block(source: str) -> str:
    """The source of a module's ``if __name__ == "__main__":`` block."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
                and getattr(node.test.left, "id", None) == "__name__"):
            return "\n".join(map(ast.unparse, node.body))
    raise LookupError("no __main__ block")


def test_both_ways_of_starting_tm_call_one_function():
    """``tm``, the console script that ``pyproject.toml`` declares, names
    the function that ``python -m tmflow.cli`` calls, and nothing else."""
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    module, _, function = project["scripts"]["tm"].partition(":")
    assert module == "tmflow.cli"
    assert main_block((SRC / "cli.py").read_text(encoding="utf-8")) == f"{function}()"


def package_functions():
    """Each module-level function of the package and each method of each
    class defined there, with their defining modules."""
    for info in pkgutil.iter_modules(tmflow.__path__):
        module = importlib.import_module(f"tmflow.{info.name}")
        for value in vars(module).values():
            if isinstance(value, types.FunctionType):
                yield module, value
            elif isinstance(value, type):
                for member in vars(value).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, cached_property):
                        member = member.func
                    if isinstance(member, types.FunctionType):
                        yield module, member


def test_every_annotation_resolves():
    unresolved = []
    for module, function in package_functions():
        if function.__module__ != module.__name__:
            continue  # imported, or generated (a named tuple's ``__new__``)
        try:
            typing.get_type_hints(function)
        except NameError as exc:
            unresolved.append(f"{module.__name__}.{function.__qualname__}: {exc}")
    assert unresolved == []


def test_the_check_sees_a_module_level_import():
    source = ("import json\n"
              "from . import dot, model\n"
              "from .simulate import simulate\n"
              "if True:\n"
              "    from .jsonio import dumps\n"
              "try:\n"
              "    import tmflow.behavior\n"
              "except ImportError:\n"
              "    pass\n"
              "def f():\n"
              "    from . import jsonio\n"
              "class C:\n"
              "    import random\n")
    assert module_level_imports(source) == {
        "json", ".dot", ".model", ".simulate", ".jsonio", "tmflow.behavior"}
    assert module_level_imports(source) & DEFERRED == {"json", ".dot", ".jsonio"}


# ---------------------------------------------------------------------------
# Fresh interpreters

def fresh(code: str, *argv: str) -> str:
    """Standard output of ``code`` run by a new interpreter from the
    repository root, with this tree's ``src`` first on the path."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent), TM_COLOR="never")
    run = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


# Runs one `tm` command, its output sent to stderr, then lists the modules.
FOOTPRINT = """\
import sys
from tmflow import cli
sys.stdout = sys.stderr
cli.main(sys.argv[1:])
print("\\n".join(sorted(sys.modules)), file=sys.__stdout__)
"""


# What no `tm` command loads: `dataclasses` (and, through it, `inspect`),
# and `argparse` with the `gettext` and `locale` it brings.
NEVER_LOADED = {"dataclasses", "inspect", "argparse", "gettext", "locale"}


def loaded_by(*argv: str) -> set[str]:
    return set(fresh(FOOTPRINT, *argv).split())


@pytest.mark.parametrize("model", ["corpus/mousetrap.tm", "corpus/stack.tm"])
@pytest.mark.parametrize("command", [["check"], ["events"], ["events", "--bound", "3"],
                                     ["behavior"], ["export", "--format", "dot"]],
                         ids=" ".join)
def test_model_commands_load_simulate_but_no_json(command, model):
    loaded = loaded_by(command[0], model, *command[1:])
    assert {"tmflow.cli", "tmflow.validate", "tmflow.simulate"} <= loaded
    assert loaded & {"tmflow.jsonio", "json"} == set()
    assert loaded & NEVER_LOADED == set()


def test_check_as_json_loads_jsonio_and_no_dataclasses():
    loaded = loaded_by("check", "corpus/mousetrap.tm", "--format", "json")
    assert {"tmflow.jsonio", "json", "tmflow.simulate"} <= loaded
    assert loaded & NEVER_LOADED == set()


def test_simulate_as_text_loads_no_json_or_dot():
    loaded = loaded_by("simulate", "corpus/mousetrap.tm", "corpus/mousetrap.tms")
    assert "tmflow.simulate" in loaded
    assert loaded & {"json", "tmflow.jsonio", "tmflow.dot"} == set()
    assert loaded & NEVER_LOADED == set()


@pytest.mark.parametrize("options", [["--format", "json"]], ids=" ".join)
def test_simulate_with_options_loads_no_dataclasses(options):
    loaded = loaded_by("simulate", "corpus/mousetrap.tm", "corpus/mousetrap.tms", *options)
    assert "tmflow.simulate" in loaded
    assert loaded & NEVER_LOADED == set()


# The public names: the records, the errors, and the functions that
# something besides the tests calls (see test_every_public_function_is_used).
PUBLIC = [
    "BehaviorGraph", "BoundTooLarge", "Diagnostic", "Document", "Event",
    "ExprSyntaxError", "FlowArc", "GuardTypeError", "Interval", "Machine", "ModelError",
    "Occurrence", "Region", "RegionCheckFailed", "Scenario", "Segmentation",
    "SourceSpan", "StageKind", "StageNotDeclaredError", "StageRef", "Subdiagram",
    "ThingDecl", "TMModel", "TMParseError", "Token", "TokenSeed", "Trace", "TraceMeta",
    "TraceRecord", "TriggerArc", "UnknownMachineError", "UnseededCreateError",
    "ValidationReport", "check_regions", "conformance", "desugar",
    "enumerate_subdiagrams", "flow_allowed", "infer_behavior", "merge_documents",
    "normalize_ref", "parse", "parse_scenario", "parse_with_diagnostics",
    "reachable_stages", "segment", "serialize", "simulate", "validate",
    "validate_behavior",
]

# Imports tmflow one way first, then checks the public API; prints "ok".
PUBLIC_API = """\
import sys, types
{first}
import tmflow
from tmflow import simulate as imported
assert tmflow.__all__ == {public!r}, tmflow.__all__
assert callable(tmflow.simulate) and callable(tmflow.validate)
assert not isinstance(tmflow.simulate, types.ModuleType)
assert tmflow.simulate is sys.modules["tmflow.simulate"].simulate
assert tmflow.validate is sys.modules["tmflow.validate"].validate
assert imported is tmflow.simulate
for name in tmflow.__all__:
    assert getattr(tmflow, name) is not None, name
assert set(tmflow.__all__) <= set(dir(tmflow))
namespace = {{}}
exec("from tmflow import *", namespace)
assert set(tmflow.__all__) <= set(namespace), set(tmflow.__all__) - set(namespace)
assert namespace["simulate"] is tmflow.simulate
try:
    tmflow.no_such_name
except AttributeError as exc:
    assert str(exc) == "module 'tmflow' has no attribute 'no_such_name'", exc
else:
    raise AssertionError("no AttributeError")
import tmflow.simulate
assert callable(tmflow.simulate) and tmflow.simulate is namespace["simulate"]
print("ok")
"""


@pytest.mark.parametrize("first", [
    "import tmflow.cli",
    "import tmflow.jsonio",
    "import tmflow\n"
    "tmflow.parse_scenario('scenario s {\\n  token t of job at a.Create\\n}\\n')",
    "from tmflow.simulate import Trace",
    "",
], ids=["cli", "jsonio", "parse_scenario", "simulate module", "package"])
def test_public_api_after_any_first_import(first):
    assert fresh(PUBLIC_API.format(first=first, public=PUBLIC)) == "ok\n"


def test_public_api_in_this_process():
    assert tmflow.__all__ == PUBLIC
    assert tmflow.Scenario is sys.modules["tmflow.simulate"].Scenario
    assert callable(tmflow.simulate)
    with pytest.raises(AttributeError, match="^module 'tmflow' has no attribute 'nope'$"):
        tmflow.nope


def referenced_names(source: str) -> set[str]:
    """Every name a Python source reads, as a name, an attribute or an import."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def passed_keywords(source: str) -> set[tuple[str, str]]:
    """Each (function name, parameter name) that a Python source passes
    as ``name=`` in a call of a plain or dotted name."""
    found: set[tuple[str, str]] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            callee = node.func
            called = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            found.update((called, keyword.arg) for keyword in node.keywords)
    return found


def test_every_public_function_is_used():
    """Each function in ``__all__`` is read by a package module other than
    its own, by the benchmark, or as ``tmflow.name`` in the README, and
    each of its defaulted parameters is passed as ``name=`` by one of
    them: a function, or an option, that only tests use is no public API."""
    sources = {f"tmflow.{path.stem}": path.read_text(encoding="utf-8") for path in MODULES}
    reads = {module: referenced_names(source) for module, source in sources.items()}
    passes = {module: passed_keywords(source) for module, source in sources.items()}
    bench = [path.read_text(encoding="utf-8") for path in (ROOT / "perfbench").glob("*.py")]
    bench_reads = set().union(*map(referenced_names, bench))
    bench_passes = set().union(*map(passed_keywords, bench))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readme_reads = set(re.findall(r"\btmflow\.(\w+)", readme))
    unused = []
    for name in tmflow.__all__:
        function = getattr(tmflow, name)
        if not isinstance(function, types.FunctionType):
            continue
        others = [module for module in sources if module != function.__module__]
        if name not in bench_reads | readme_reads and not any(
                name in reads[module] for module in others):
            unused.append(name)
        passed = bench_passes.union(*(passes[module] for module in others))
        for parameter in inspect.signature(function).parameters.values():
            if (parameter.default is not parameter.empty
                    and (name, parameter.name) not in passed
                    and not re.search(rf"\b{name}\([^)]*\b{parameter.name}=", readme)):
                unused.append(f"{name}({parameter.name}=)")
    assert unused == []


# What reads the machine tree or resolves a stage path on its own: only
# ``model`` may, where ``Linked`` walks the tree once and resolves every
# ref through ``normalize``'s table.
TREE_READERS = {"walk", "stage_instances", "_lookup"}


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "model.py"],
                         ids=lambda p: p.name)
def test_only_the_link_reads_the_machine_tree(path):
    """Every other module reads ``Linked.machines``, ``Linked.stages`` and
    ``Linked.normalize``."""
    assert referenced_names(path.read_text(encoding="utf-8")) & TREE_READERS == set()


def test_the_check_sees_a_tree_read():
    for source in ("for path, machine in model.walk(): pass\n",
                   "refs = link(model).model.stage_instances()\n",
                   "from .model import _lookup\n",
                   "path = model._lookup(machines, index, ref)\n"):
        assert referenced_names(source) & TREE_READERS, source
    assert referenced_names("for path, machine in linked.machines: pass\n"
                            "refs = linked.stages\n") & TREE_READERS == set()


def test_every_dataclass_has_a_docstring():
    """Every record class, which ``dataclasses.is_dataclass`` matches
    through its ``_DataclassView`` (a ``Record`` or the ``TraceRecord``
    named tuple), carries its own docstring, not one made from its
    field names."""
    undocumented = []
    for info in pkgutil.iter_modules(tmflow.__path__):
        module = importlib.import_module(f"tmflow.{info.name}")
        for value in vars(module).values():
            if (dataclasses.is_dataclass(value) and value.__module__ == module.__name__
                    and value.__doc__.startswith(f"{value.__name__}(")):
                undocumented.append(value.__qualname__)
    assert undocumented == []
