"""Checks on the package source as a whole: public names, imports, line length,
README layout."""

import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import cqed

SRC = Path(cqed.__file__).parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(cqed.__path__) if not m.name.startswith("_"))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"cqed.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def _imports(path: Path):
    """(line, top-level module) of each absolute import in ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_imports_are_numpy_and_stdlib_only():
    # The package promises to need numpy alone.
    foreign = [f"{path.name}:{line} {root}" for path in sorted(SRC.glob("*.py"))
               for line, root in _imports(path)
               if root != "numpy" and root not in sys.stdlib_module_names]
    assert foreign == []


def test_no_module_reaches_memory_through_ctypes():
    # A pointer write into a numpy object's memory bypasses numpy's checks
    # and depends on its private layout; numpy's ``.ctypes`` and ``ctypeslib``
    # are the same door.
    found = [f"{path.name}:{line} ctypes" for path in sorted(SRC.glob("*.py"))
             for line, root in _imports(path) if root == "ctypes"]
    found += [f"{path.name}:{node.lineno} .{node.attr}" for path in sorted(SRC.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute) and node.attr in ("ctypes", "ctypeslib")]
    assert found == []


def test_no_module_starts_processes_or_loads_logging():
    # The package runs in one process (threads at most), and every import
    # counts in each run's start-up: ``concurrent.futures`` alone pulls in
    # ``logging``, about 7 ms.
    found = [f"{path.name}:{line} {root}" for path in sorted(SRC.glob("*.py"))
             for line, root in _imports(path)
             if root in ("multiprocessing", "concurrent", "subprocess", "logging")]
    assert found == []


def test_no_source_line_over_99_characters():
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted(SRC.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > 99
    ]
    assert long_lines == []


def test_every_module_has_a_readme_layout_row():
    readme = (SRC.parents[1] / "README.md").read_text()
    layout = readme.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `cqed\.(\w+)`", layout, flags=re.MULTILINE))
    assert [name for name in MODULES if name not in rows] == []


def _reads(node) -> set[str]:
    """Names ``node`` reads: loaded names, attribute names and from-imported names.

    Class base lists are skipped: a class that is only subclassed, never
    raised, caught or called, picks out no behaviour of its own.
    """
    found = set()
    todo = [node]
    while todo:
        sub = todo.pop()
        if isinstance(sub, ast.ClassDef):
            todo += [*sub.decorator_list, *sub.keywords, *sub.body]
            continue
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
        todo += ast.iter_child_nodes(sub)
    return found


def _defines(stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def test_every_public_name_is_reached():
    # A public name must be read by another module, by its own module outside
    # its own definition, or by the acceptance criteria; one read only by its
    # unit tests is dead code.
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    reads = {name: _reads(tree) for name, tree in trees.items()}
    acceptance = _reads(ast.parse(Path(__file__).with_name("test_acceptance.py").read_text()))
    unreached = []
    for name in MODULES:
        outside = acceptance.union(*(r for other, r in reads.items() if other != name))
        body = trees[name].body
        for stmt in body:
            own = set().union(*(_reads(s) for s in body if s is not stmt))
            unreached += [f"{name}.{public}" for public in sorted(_defines(stmt))
                          if not public.startswith("_") and public not in outside | own]
    assert unreached == [], unreached


def test_no_test_oracle_is_defined_in_the_package():
    # The reference implementations in tests/oracles.py serve only the tests;
    # one back in the package would be code that no command runs.
    oracles = ast.parse(Path(__file__).with_name("oracles.py").read_text()).body
    names = set().union(*(_defines(stmt) for stmt in oracles))
    found = [f"{path.stem}.{name}" for path in sorted(SRC.glob("*.py"))
             for stmt in ast.parse(path.read_text()).body for name in sorted(_defines(stmt))
             if name in names]
    assert found == []


def test_a_name_read_only_as_a_base_class_is_not_reached():
    tree = ast.parse("class A(Base, metaclass=Meta):\n    x = y\n")
    assert _reads(tree) == {"Meta", "y"}


def test_no_assertion_error_in_the_package():
    # An AssertionError escapes run_command's exit-code mapping and ends a
    # command in an exit-1 traceback.
    found = []
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                raised = node.exc if isinstance(node, ast.Raise) else None
                raised = getattr(raised, "func", raised)
                if isinstance(node, ast.Assert) or getattr(raised, "id", "") == "AssertionError":
                    found.append(f"{path.stem}.{getattr(top, 'name', '')}:{node.lineno}")
    assert found == []
