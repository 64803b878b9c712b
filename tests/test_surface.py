"""Every name the package defines is read somewhere a user can reach.

The names are the top-level defs, classes and assignments of each
module and the functions defined in its classes (``Class.method``).
A name counts as read when its word appears outside its own definition
in the package modules (``__init__.py`` aside: re-exporting is not
use), a demo or a benchmark script. Tests do not count as readers, so
code that only its own tests call is flagged for deletion.
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


# ``prepare`` and heuristic ``calibrate`` on one three-claim chain, then
# ``stats`` on two items; after each, a line saying whether numpy is loaded
_START = """
import json, sys
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
    ["stats", "--annotations", "ann.jsonl", "--out", "stats"],
):
    assert cli.main(argv) == 0, argv
    print("numpy after", argv[0], "numpy" in sys.modules)
"""


def test_prepare_and_calibrate_start_without_numpy(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, "-c", _START], cwd=tmp_path, capture_output=True, text=True,
        env=env, check=True,
    )
    loaded = [line for line in done.stdout.splitlines() if line.startswith("numpy after ")]
    assert loaded == [
        "numpy after prepare False", "numpy after calibrate False", "numpy after stats True"
    ]
