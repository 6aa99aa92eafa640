"""Every ``repro`` module is used by a runner, not only by tests.

The runners are the table jobs (``jobs/*.py``) and the benchmark
(``ingest_bench/*.py``). Their ``repro.*`` imports are followed through
``src/repro`` by parsing source, so no module is imported and no Spark
session is needed. A module none of them reaches is a path that only
tests call.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _source(module: str) -> Path | None:
    """The file defining ``module``, or None if it is not a repro module
    (for example a class named in a ``from`` import)."""
    base = SRC.joinpath(*module.split("."))
    for path in (base.with_suffix(".py"), base / "__init__.py"):
        if path.is_file():
            return path
    return None


def _repro_imports(path: Path) -> set:
    """Dotted names under ``repro`` that ``path`` imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.add(node.module)
            names.update(f"{node.module}.{a.name}" for a in node.names)
    return {n for n in names if n.split(".")[0] == "repro"}


def _reached() -> set:
    todo = [p for d in ("jobs", "ingest_bench") for p in (ROOT / d).glob("*.py")]
    seen_files, modules = set(todo), set()
    while todo:
        for module in _repro_imports(todo.pop()):
            path = _source(module)
            if path is not None and path not in seen_files:
                seen_files.add(path)
                modules.add(module)
                todo.append(path)
    return modules


def test_every_module_is_reached_from_a_runner():
    every = {
        ".".join(p.relative_to(SRC).with_suffix("").parts)
        for p in (SRC / "repro").rglob("*.py") if p.name != "__init__.py"
    }
    assert every, "no repro modules found"
    assert sorted(every - _reached()) == []
