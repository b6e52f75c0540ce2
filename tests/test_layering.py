"""The package graph points one way: the kernel at the bottom, the
bench harness and the CLI at the top.

Every ``import`` and ``from`` statement of every ``src/repro`` module is
read with :mod:`ast`, at module level and inside functions (a lazy
import is still a dependency).  Two rules hold:

* ``repro.sim`` imports nothing from ``repro`` except ``repro.sim.*``
  and ``repro.errors``;
* nothing outside ``repro.bench``, ``repro.cli`` and ``repro.__main__``
  imports ``repro.bench`` or ``repro.cli``.
"""

import ast
from pathlib import Path
from typing import Iterator, List, Tuple

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(path: Path) -> Iterator[Tuple[int, str]]:
    """``(line, absolute module)`` for every import statement in *path*.

    ``from X import y`` yields both ``X`` and ``X.y``, since ``y`` may be
    a submodule; relative imports resolve against the module's package.
    """
    module = _module_name(path)
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            yield node.lineno, base
            for alias in node.names:
                yield node.lineno, f"{base}.{alias.name}"


def _edges() -> List[Tuple[str, int, str]]:
    edges = []
    for path in sorted(SRC.joinpath("repro").rglob("*.py")):
        module = _module_name(path)
        for line, target in _imports(path):
            if target == "repro" or target.startswith("repro."):
                edges.append((module, line, target))
    return edges


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


def test_sim_imports_only_itself_and_errors():
    edges = [(m, line, t) for m, line, t in _edges() if _within(m, "repro.sim")]
    assert edges  # the walk reached the kernel package
    bad = [f"{module}:{line} imports {target}"
           for module, line, target in edges
           if target != "repro"
           and not _within(target, "repro.sim")
           and not _within(target, "repro.errors")]
    assert not bad, bad


def test_only_the_harness_imports_bench_and_cli():
    top = ("repro.bench", "repro.cli", "repro.__main__")
    edges = [(m, line, t) for m, line, t in _edges()
             if _within(t, "repro.bench") or _within(t, "repro.cli")]
    assert edges  # the harness imports itself, so the walk must see it
    bad = [f"{module}:{line} imports {target}"
           for module, line, target in edges
           if not any(_within(module, p) for p in top)]
    assert not bad, bad
