"""Layout guards: every top-level function and class in the package is used
by the program itself (a name that only tests use is a test helper and
belongs in tests/oracles.py, not in src/), every dataclass field is read
by it, every defaulted parameter is passed by some call, no module reads
another module's private names, only `storage` writes files or reads
JSON, no module scatters with a ufunc's `at`, only `estimator` calls
`np.linalg.svd`, and every CLI flag is read by its subcommand."""

import ast
import re
from pathlib import Path

from stereoloc import cli

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


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
               for d in node.decorator_list)


def test_every_dataclass_field_is_read_by_the_program():
    """A field that is written but never read does nothing. A field counts
    as read where the program, outside the field's own class, loads an
    attribute of its name or holds a string of its name (as `getattr` and
    the CLI's SUMMARY_SCHEMA keys read fields)."""
    trees = {path: ast.parse("\n".join(lines)) for path, lines in _program_sources().items()}
    reads: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append((path, node.lineno))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                reads.setdefault(node.value, []).append((path, node.lineno))
    unread = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)):
                    continue
                name = stmt.target.id
                if not any(where != path or not cls.lineno <= line <= cls.end_lineno
                           for where, line in reads.get(name, [])):
                    unread.append(f"{path.relative_to(ROOT)}: {cls.name}.{name}")
    assert not unread, "dataclass fields the program never reads:\n" + "\n".join(unread)


def test_every_defaulted_parameter_is_passed_somewhere():
    """A parameter whose default no call overrides is a constant. A defaulted
    parameter of a top-level function in the package counts as passed where
    a call of that function's name in the program or the tests passes it by
    keyword or by position; a call with `*args` or `**kwargs` passes every
    parameter."""
    calls: dict[str, list[ast.Call]] = {}
    for d in PROGRAM_DIRS + ("tests",):
        for path in sorted((ROOT / d).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                    calls.setdefault(name, []).append(node)

    def passes(call: ast.Call, param: str, position: int | None) -> bool:
        return (position is not None and len(call.args) > position
                or any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg in (param, None) for k in call.keywords))

    never = []
    for path in sorted(PACKAGE.glob("*.py")):
        for fn in ast.parse(path.read_text()).body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            positional = a.posonlyargs + a.args
            defaulted = [(p.arg, i) for i, p in enumerate(positional)
                         if i >= len(positional) - len(a.defaults)]
            defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
            never += [f"{path.stem}.{fn.name}: {param}" for param, i in defaulted
                      if not any(passes(c, param, i) for c in calls.get(fn.name, []))]
    assert not never, "defaulted parameters no call passes:\n" + "\n".join(never)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_module_reads_a_private_name_of_a_sibling():
    """A `_name` belongs to its module: siblings reach it neither as an
    attribute of the module (`synth._frame_blob`) nor by a relative import
    (`from .synth import _frame_blob`). The package imports its siblings
    relatively only."""
    siblings = {path.stem for path in PACKAGE.glob("*.py")}
    reads = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in siblings:
                        aliases[alias.asname or alias.name] = alias.name
                    elif node.module in siblings and _private(alias.name):
                        reads.append(f"{path.stem}: {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
                and _private(node.attr)
            ):
                reads.append(f"{path.stem}: {aliases[node.value.id]}.{node.attr}")
    assert not reads, "private names read across modules:\n" + "\n".join(sorted(set(reads)))


FILE_WRITERS = {"open", "write_text", "write_bytes", "tofile", "mkdir"}
SERIALISERS = {"json", "csv"}


def test_only_storage_writes_files():
    """`storage` is the one module that writes a file or (de)serialises JSON
    or CSV, so every write goes through its atomic replace. Reading text, as
    the CLI reads its config file, is allowed anywhere."""
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "storage":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name in FILE_WRITERS:
                    offences.append(f"{path.stem}:{node.lineno}: calls {name}")
            elif isinstance(node, ast.Import):
                offences += [
                    f"{path.stem}:{node.lineno}: imports {alias.name}"
                    for alias in node.names
                    if alias.name.split(".")[0] in SERIALISERS
                ]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] in SERIALISERS:
                    offences.append(f"{path.stem}:{node.lineno}: imports {node.module}")
    assert not offences, "file writes outside storage:\n" + "\n".join(offences)


def test_only_storage_reads_json():
    """`storage` is the one module that parses JSON, so every manifest and
    run file the package reads passes through its schema walk."""
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "storage":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                offences += [f"{path.stem}:{node.lineno}: imports json.{alias.name}"
                             for alias in node.names if alias.name in ("load", "loads")]
            elif (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
                  and isinstance(node.value, ast.Name) and node.value.id == "json"):
                offences.append(f"{path.stem}:{node.lineno}: calls json.{node.attr}")
    assert not offences, "JSON read outside storage:\n" + "\n".join(offences)


def test_no_module_scatters_with_ufunc_at():
    """Matrix forms, not scatter loops: no package module calls a numpy
    ufunc's unbuffered `at` (`np.add.at` and the like). A gather that reads
    each element once pulls back by a store, and sums over repeated indices
    run as one `np.bincount` or one product."""
    offences = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            func = node.func if isinstance(node, ast.Call) else None
            if (isinstance(func, ast.Attribute) and func.attr == "at"
                    and isinstance(func.value, ast.Attribute)
                    and isinstance(func.value.value, ast.Name) and func.value.value.id == "np"):
                offences.append(f"{path.stem}:{node.lineno}: calls np.{func.value.attr}.at")
    assert not offences, "ufunc scatters in the package:\n" + "\n".join(offences)


def test_one_svd_site():
    """One weighted alignment: the package's one SVD is `np.linalg.svd` in
    `estimator`, which training's `autodiff.rigid_align`, RANSAC's refit and
    teach's vertex check all reach. No other module names numpy's `svd`."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and node.attr == "svd"
                    or isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                    and any(alias.name == "svd" for alias in node.names)):
                sites.append(f"{path.stem}:{node.lineno}")
    assert len(sites) == 1 and sites[0].startswith("estimator:"), (
        "np.linalg.svd must be named once, in estimator:\n" + "\n".join(sites))


def _args_reads(fn: ast.FunctionDef, functions: dict[str, ast.FunctionDef],
                param: str = "args") -> set[str]:
    """The `<param>.<name>` attributes `fn` loads, and those of every `cli`
    function it passes `param` to, but the run manifest's writer, which
    records every flag whether or not anything reads it."""
    reads = set()
    for node in ast.walk(fn):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id == param):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in functions and node.func.id != "_write_run_manifest"):
            callee = functions[node.func.id]
            for arg, callee_param in zip(node.args, callee.args.args):
                if isinstance(arg, ast.Name) and arg.id == param:
                    reads |= _args_reads(callee, functions, callee_param.arg)
    return reads


def test_every_cli_flag_is_read_by_its_subcommand():
    """A flag nothing reads does nothing but reach the run manifest. Each
    subcommand's flags, but `--config` (which `main` reads) and `help`, are
    read as `args.<dest>` by its `cmd_*` function or by a `cli` helper that
    function passes `args` to."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    functions = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    _, subcommands = cli.build_parser()
    unread = []
    for name, parser in sorted(subcommands.items()):
        func = parser.get_default("func")
        reads = _args_reads(functions[func.__name__], functions)
        unread += [f"{name} {action.option_strings[0]}" for action in parser._actions
                   if action.dest not in ("config", "help") and action.dest not in reads]
    assert not unread, "flags their subcommand never reads:\n" + "\n".join(unread)
