"""The package exports: every name in `__all__` resolves, a token is
built only by `Transition` or `parse_transition(s)`, no module
imports a name it never reads, and no function writes into a module's
dicts, lists or sets."""

import ast
from pathlib import Path

import pytest

import discoseq
import discoseq.neural
from discoseq import transitions

REMOVED_TOKEN_ALIASES = ("shift", "shift_k", "swap", "swap_k", "nt", "reduce_",
                         "reduce_l", "reduce_kl", "finish")


@pytest.mark.parametrize("package", [discoseq, discoseq.neural],
                         ids=lambda package: package.__name__)
def test_every_exported_name_resolves(package):
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
    assert len(set(package.__all__)) == len(package.__all__)


def test_no_token_alias_is_exported():
    assert [name for name in REMOVED_TOKEN_ALIASES
            if name in discoseq.__all__ or hasattr(discoseq, name)
            or hasattr(transitions, name)] == []


def unused_imports(source: str) -> list[str]:
    """Names that `source` imports but never reads nor lists in `__all__`,
    skipping imports marked `# noqa: F401`."""
    module = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(module)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in module.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "__all__" for target in node.targets)):
            read.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(module):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".")[0]
            if bound != "*" and bound not in read:
                unused.append(f"line {node.lineno}: {bound}")
    return unused


PACKAGE = Path(discoseq.__file__).parent


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: path.relative_to(PACKAGE.parent).as_posix())
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_unused_import_check_flags_an_appended_import():
    source = Path(transitions.__file__).read_text(encoding="utf-8")
    assert unused_imports(source) == []
    assert unused_imports(source + "import os\n") == [
        f"line {len(source.splitlines()) + 1}: os"]
    assert unused_imports(source + "import os  # noqa: F401\n") == []


# `bench/tracing.py` wraps library functions where their callers bind them,
# so a module may import a name only for the tracer, under `# noqa: F401`
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def tracer_bindings() -> set[tuple[str, str]]:
    """The (module, name) pairs that the tracer's `WRAPS` spells out,
    read from its source without importing it."""
    module = ast.parse(TRACING.read_text(encoding="utf-8"))
    wraps = next(node.value for node in module.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "WRAPS")
    return {(entry.elts[0].value, entry.elts[1].value) for entry in ast.walk(wraps)
            if isinstance(entry, ast.Tuple) and len(entry.elts) == 4
            and all(isinstance(elt, ast.Constant) for elt in entry.elts[:2])}


def untraced_imports(module_name: str, source: str) -> list[str]:
    """The names that `source` imports under `# noqa: F401` and never
    reads, but that the tracer does not bind in `module_name`."""
    hidden = [found.split(": ")[1]
              for found in unused_imports(source.replace("# noqa: F401", ""))]
    bound = tracer_bindings()
    return [name for name in hidden if (module_name, name) not in bound]


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: path.relative_to(PACKAGE.parent).as_posix())
def test_every_import_kept_from_the_unused_check_is_a_tracer_binding(path):
    assert untraced_imports(_module_name(path), path.read_text(encoding="utf-8")) == []


def test_the_tracer_binding_check_flags_an_appended_marked_import():
    path = PACKAGE / "neural" / "beam.py"
    name, source = _module_name(path), path.read_text(encoding="utf-8")
    assert name == "discoseq.neural.beam"
    assert untraced_imports(name, source) == []
    assert untraced_imports(name, source + "import os  # noqa: F401\n") == ["os"]


def _loads(module: ast.Module) -> set[str]:
    """The names and attribute names that `module` reads; `x += y` reads x."""
    augmented = {node.target for node in ast.walk(module) if isinstance(node, ast.AugAssign)}
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(module) if isinstance(node, (ast.Name, ast.Attribute))
            and (isinstance(node.ctx, ast.Load) or node in augmented)}


def private_names(module: ast.Module) -> list[str]:
    """The private names that `module` defines at its top level."""
    names = []
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets for target in ast.walk(target)
                      if isinstance(target, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unread_parameters(module: ast.Module) -> list[str]:
    """`function.parameter` for each parameter but `self` that its
    function, nested functions included, never reads."""
    unread = []
    for node in ast.walk(module):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = [arg.arg for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                      args.vararg, args.kwarg] if arg is not None]
        body = ast.Module(node.body if isinstance(node.body, list) else [node.body], [])
        read = _loads(body)
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}.{param}" for param in params
                   if param != "self" and param not in read]
    return unread


MODULES = {path.relative_to(PACKAGE.parent).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.rglob("*.py"))}


def test_every_private_module_name_is_read_in_the_package():
    read = set().union(*map(_loads, MODULES.values()))
    assert [f"{path}: {name}" for path, module in MODULES.items()
            for name in private_names(module) if name not in read] == []


def test_no_function_leaves_a_parameter_unread():
    assert [f"{path}: {found}" for path, module in MODULES.items()
            for found in unread_parameters(module)] == []


def test_the_name_checks_flag_an_appended_function():
    module = ast.parse("def _unused(self, kept, added, dropped):\n"
                       "    added += 1\n"
                       "    return kept\n")
    assert private_names(module) == ["_unused"]
    assert "_unused" not in _loads(module)
    assert unread_parameters(module) == ["_unused.dropped"]


_MUTATORS = frozenset({"add", "append", "clear", "difference_update", "discard", "extend",
                       "insert", "intersection_update", "pop", "popitem", "remove",
                       "reverse", "setdefault", "sort", "symmetric_difference_update",
                       "update"})


def _is_container(value: ast.expr | None) -> bool:
    """Whether `value` builds a dict, list or set."""
    return (isinstance(value, (ast.Dict, ast.List, ast.Set,
                               ast.DictComp, ast.ListComp, ast.SetComp))
            or isinstance(value, ast.Call)
            and getattr(value.func, "id", None) in ("dict", "list", "set"))


def module_state_writes(module: ast.Module) -> list[str]:
    """`function: line N: name` for each write that a function makes into
    a dict, list or set bound at module level, by a subscript store or
    delete or by a mutating method.  A name the function binds is its own
    unless it is declared global."""
    state = {target.id for node in module.body
             if isinstance(node, (ast.Assign, ast.AnnAssign)) and _is_container(node.value)
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name)}
    writes = []
    for function in ast.walk(module):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = function.args
        own = {arg.arg for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                   args.vararg, args.kwarg] if arg is not None}
        own |= {node.id for node in ast.walk(function)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        own -= {name for node in ast.walk(function) if isinstance(node, ast.Global)
                for name in node.names}
        for node in ast.walk(function):
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
                target = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS):
                target = node.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in state - own:
                writes.append(f"{function.name}: line {node.lineno}: {target.id}")
    return writes


def test_no_function_writes_into_module_state():
    assert [f"{path}: {found}" for path, module in MODULES.items()
            for found in module_state_writes(module)] == []


def test_the_module_state_check_flags_an_appended_writer():
    source = Path(transitions.__file__).read_text(encoding="utf-8")
    assert module_state_writes(ast.parse(source)) == []
    end = len(source.splitlines())
    appended = source + ("_SEEN: dict[str, int] = {}\n"
                         "_ORDER = list()\n"
                         "def _remember(key):\n"
                         "    _SEEN[key] = 1\n"
                         "    _ORDER.append(key)\n"
                         "def _own(key):\n"
                         "    _SEEN = {}\n"
                         "    _SEEN[key] = 1\n"
                         "def _shared(key):\n"
                         "    global _SEEN\n"
                         "    _SEEN = {}\n"
                         "    del _SEEN[key]\n")
    assert sorted(module_state_writes(ast.parse(appended))) == [
        f"_remember: line {end + 4}: _SEEN", f"_remember: line {end + 5}: _ORDER",
        f"_shared: line {end + 12}: _SEEN"]
