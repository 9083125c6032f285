"""Layout guard: every top-level function and class in the package is used
by the program itself. A name that only tests use is a test helper and
belongs in tests/oracles.py, not in src/."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "stereoloc"
PROGRAM_DIRS = ("src", "scripts", "perfbench")


def _program_sources() -> dict[Path, list[str]]:
    return {
        path: path.read_text().splitlines()
        for d in PROGRAM_DIRS
        for path in sorted((ROOT / d).rglob("*.py"))
    }


def test_every_top_level_name_is_used_by_the_program():
    sources = _program_sources()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse("\n".join(sources[path]))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            pattern = re.compile(rf"\b{re.escape(name)}\b")
            used = False
            for other, lines in sources.items():
                if other == path:  # outside the definition itself
                    lines = lines[: start - 1] + lines[node.end_lineno :]
                if any(pattern.search(line) for line in lines):
                    used = True
                    break
            if not used:
                unused.append(f"{path.relative_to(ROOT)}: {name}")
    assert not unused, "defined in src/ but used only by tests (or nowhere):\n" + "\n".join(
        unused
    )
