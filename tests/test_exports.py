"""The package exports: every name in `__all__` resolves, a token is
built only by `Transition` or `parse_transition(s)`, and no module
imports a name it never reads."""

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
