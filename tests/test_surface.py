"""Every name the package defines is read somewhere a user can reach.

The names are the top-level defs, classes and assignments of each
module and the functions defined in its classes (``Class.method``).
A name counts as read when its word appears outside its own definition
in the package modules (``__init__.py`` aside: re-exporting is not
use), a demo or a benchmark script. Tests do not count as readers, so
code that only its own tests call is flagged for deletion.

The same readers must also read every dataclass field and set every
defaulted parameter of the package's functions and methods; a field or
a knob that only tests touch is flagged the same way. Every name a
package module imports must be loaded in that module, and every
``Protocol`` needs two package classes that implement it.
"""

import ast
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

from claimpolish import __version__

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "claimpolish"
WORD = re.compile(r"\w+")


def _modules() -> list[Path]:
    return sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _readers() -> list[Path]:
    scripts = [*(ROOT / "demos").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    return _modules() + sorted(p for p in scripts if not p.name.startswith("test_"))


def _span(node: ast.stmt) -> tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return first, node.end_lineno


def _definitions(tree: ast.Module):
    """``(qualified name, first line, last line)`` of each top-level def,
    class and assignment, and of each function defined in a class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            yield (name, *_span(node))
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    yield (f"{node.name}.{method.name}", *_span(method))


def _words(lines: list[str]) -> Counter:
    return Counter(word for line in lines for word in WORD.findall(line))


def unreached_names() -> list[str]:
    texts = {path: path.read_text(encoding="utf-8").splitlines() for path in _readers()}
    everywhere = sum((_words(lines) for lines in texts.values()), Counter())
    unreached = []
    for module in _modules():
        lines = texts[module]
        for qualname, first, last in _definitions(ast.parse("\n".join(lines))):
            name = qualname.rpartition(".")[2]
            if name.startswith("__") and name.endswith("__"):
                continue
            if everywhere[name] == _words(lines[first - 1 : last])[name]:
                unreached.append(f"{module.stem}.{qualname}")
    return unreached


def test_every_top_level_name_is_read_outside_tests():
    assert unreached_names() == []


def _trees() -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in _readers()}


def _called_name(node: ast.expr) -> str | None:
    """The name a call or decorator expression calls: ``f`` or ``x.f``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _dataclasses(trees: dict[Path, ast.Module]) -> dict[str, tuple[Path, ast.ClassDef]]:
    return {
        node.name: (module, node)
        for module in _modules()
        for node in trees[module].body
        if isinstance(node, ast.ClassDef)
        and any(_called_name(d) == "dataclass" for d in node.decorator_list)
    }


def _dumped_classes(trees: dict[Path, ast.Module], classes: dict) -> set[str]:
    """The dataclasses whose instances go through ``asdict``, so whose
    fields all become output: the classes named in the annotation of the
    ``asdict`` argument's variable.

    The argument's variable must be a parameter of the calling function
    with an annotation; an ``asdict`` call that this cannot resolve fails."""
    dumped, unresolved = set(), []
    for path, tree in trees.items():
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            params = {a.arg: a.annotation for a in (*func.args.args, *func.args.kwonlyargs)}
            for call in ast.walk(func):
                if not (isinstance(call, ast.Call) and _called_name(call) == "asdict"):
                    continue
                root = call.args[0]
                while isinstance(root, (ast.Subscript, ast.Attribute)):
                    root = root.value
                annotation = params.get(root.id) if isinstance(root, ast.Name) else None
                named = {
                    n.id for n in ast.walk(annotation) if isinstance(n, ast.Name)
                } & set(classes) if annotation else set()
                if not named:
                    unresolved.append(f"{path.name}:{call.lineno}")
                dumped |= named
    assert unresolved == [], "asdict of a value whose dataclass no annotation names"
    return dumped


def unread_fields() -> list[str]:
    """Dataclass fields that no reader loads as an attribute, apart from
    their own class's ``__post_init__`` (a check is not a use), and that
    no ``asdict`` writes out."""
    trees = _trees()
    classes = _dataclasses(trees)
    dumped = _dumped_classes(trees, classes)
    loads = [
        (path, node.lineno, node.attr)
        for path, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    ]
    unread = []
    for name, (module, cls) in classes.items():
        if name in dumped:
            continue
        checks = [
            range(node.lineno, node.end_lineno + 1) for node in cls.body
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
        ]
        for field in cls.body:
            if not isinstance(field, ast.AnnAssign):
                continue
            if not any(
                attr == field.target.id
                and not (path == module and any(line in span for span in checks))
                for path, line, attr in loads
            ):
                unread.append(f"{module.stem}.{name}.{field.target.id}")
    return unread


def _callables(tree: ast.Module):
    """``(called name, def, leading parameters a call does not pass)`` of
    each top-level function and each method; ``__init__`` is called by
    its class's name, and other dunder methods are not called by name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                if method.name == "__init__":
                    yield node.name, method, 1
                elif not method.name.startswith("__"):
                    yield method.name, method, 1


def _defaulted(func: ast.FunctionDef, bound: int) -> list[tuple[int | None, str]]:
    """Each defaulted parameter with the call position that passes it
    (None for keyword-only ones)."""
    positional = [*func.args.posonlyargs, *func.args.args]
    first = len(positional) - len(func.args.defaults)
    keyword_only = zip(func.args.kwonlyargs, func.args.kw_defaults)
    return [(i - bound, a.arg) for i, a in enumerate(positional) if i >= first] + [
        (None, a.arg) for a, default in keyword_only if default is not None
    ]


def _sets(call: ast.Call, position: int | None, param: str) -> bool:
    return (
        any(k.arg in (None, param) for k in call.keywords)  # None: **kwargs
        or any(isinstance(a, ast.Starred) for a in call.args)
        or (position is not None and len(call.args) > position)
    )


def unset_parameters() -> list[str]:
    """Defaulted parameters of the package's functions and methods that
    no call in a reader passes, by keyword, by position, or through
    ``*`` or ``**``. A call counts when it calls the same name."""
    trees = _trees()
    calls = [n for tree in trees.values() for n in ast.walk(tree) if isinstance(n, ast.Call)]
    unset = []
    for module in _modules():
        for called, func, bound in _callables(trees[module]):
            for position, param in _defaulted(func, bound):
                if not any(
                    _called_name(call) == called and _sets(call, position, param)
                    for call in calls
                ):
                    unset.append(f"{module.stem}.{called}({param})")
    return unset


def test_every_dataclass_field_is_read_outside_tests():
    assert unread_fields() == []


def test_every_defaulted_parameter_is_set_outside_tests():
    assert unset_parameters() == []


def lone_protocols() -> dict[str, list[str]]:
    """Each ``Protocol`` class of the package that fewer than two package
    classes implement, with those that do: a class implements a protocol
    when it defines every method the protocol declares."""
    classes = [
        node for module in _modules()
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]

    def methods(cls: ast.ClassDef) -> set[str]:
        return {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}

    protocols = [c for c in classes if any(_called_name(b) == "Protocol" for b in c.bases)]
    lone = {}
    for protocol in protocols:
        implementers = [
            c.name for c in classes if c not in protocols and methods(protocol) <= methods(c)
        ]
        if len(implementers) < 2:
            lone[protocol.name] = implementers
    return lone


def test_every_protocol_has_two_implementations():
    assert lone_protocols() == {}


def unused_imports() -> list[str]:
    """Names that a module of the package imports (at any depth, ``as``
    names included; ``__future__`` aside) and never loads."""
    unused = []
    for module in _modules():
        tree = ast.parse(module.read_text(encoding="utf-8"))
        loaded = {
            node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in loaded:
                        unused.append(f"{module.stem}: {name}")
    return unused


def test_every_import_is_used():
    assert unused_imports() == []


def test_package_import_loads_no_submodule():
    code = (
        "import sys, claimpolish; "
        "print(claimpolish.__version__); "
        "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('claimpolish.')))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.splitlines() == [__version__, "[]"]


# ``prepare`` and heuristic ``calibrate`` on one three-claim chain, a
# one-CPU ``run`` that trains the ranker inline on the two test pairs, a
# ``report`` of its selections, then ``stats`` on two items; after each, a
# line saying whether numpy, numpy.random and OpenSSL's ``_hashlib`` are
# loaded, after a first line saying whether ``_hashlib`` was at start
_START = """
import json, os, sys
print("start", "_hashlib" in sys.modules)
os.sched_getaffinity = lambda pid: {0}
from claimpolish import cli
claims = ["the tax helps small towns", "The tax helps small towns.",
          "The tax helps small towns. This matters for trust."]
chain = {"chain_id": "c0", "debate_id": "d0",
         "claims": [{"id": f"c0_{i}", "text": t} for i, t in enumerate(claims)],
         "intents": ["typo_grammar", "clarification"], "topic": "debate about the tax"}
with open("chains.jsonl", "w") as fh:
    fh.write(json.dumps(chain) + "\\n")
with open("ann.jsonl", "w") as fh:
    for i, (item, worker) in enumerate([(i, w) for i in ("p0", "p1") for w in ("w1", "w2")]):
        record = {"item": item + "::top1", "worker": worker, "field": "fluency", "value": 1 + i % 3}
        fh.write(json.dumps(record) + "\\n")
for argv in (
    ["prepare", "--chains", "chains.jsonl", "--out", "data", "--per-label-test", "1"],
    ["calibrate", "--chains", "chains.jsonl", "--out", "cal"],
    ["run", "--pairs", "data/test.jsonl", "--out", "run", "--strategies", "pairwise_rank",
     "--train-pairs", "data/test.jsonl"],
    ["report", "--selections", "run/selections.jsonl", "--pairs", "data/test.jsonl",
     "--out", "rep"],
    ["stats", "--annotations", "ann.jsonl", "--out", "stats"],
):
    assert cli.main(argv) == 0, argv
    print("after", argv[0], *(m in sys.modules for m in ("numpy", "numpy.random", "_hashlib")))
"""


def test_prepare_and_calibrate_start_without_numpy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _START], cwd=tmp_path, capture_output=True, text=True,
        env=env, check=True,
    )
    loaded = [line for line in done.stdout.splitlines() if line.startswith(("start ", "after "))]
    assert loaded == [
        "start False",
        "after prepare False False False", "after calibrate False False False",
        "after run True False False", "after report True False False",
        "after stats True False False",
    ]
    assert (tmp_path / "run" / "ranker.json").is_file()
