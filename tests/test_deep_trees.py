"""Trees of any depth are read, encoded, decoded, traced and scored.

Every tree walk is a loop, so none of these stages, nor a tree's
`repr`, depends on the interpreter's recursion limit, which stays at
its default here.  A chain goes 5,000 levels deep.  Every level of a
right-branching nest holds a word; the nest goes 1,200 levels deep
here.  A yield and each side of a mask pair are stored as one integer,
so a nest's yields and mask traces grow with its depth, not with its
square: a separate process reads, encodes, decodes and scores a
5,000-level nest and traces the 1,200-level one under a memory bound.

The last test guards the loops: no function in the package calls its
own name.  It cannot see the methods that `dataclass` generates; the
depth tests cover those.  `Constituent` writes its own `repr`, which
must print what `dataclass` would.
"""

import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import discoseq as dq
from conftest import SHAPES, deep_line, random_tree

DEPTHS = {"chain": 5000, "nest": 1200}
BASES = ("inorder+swap", "topdown+swap", "bottomup+swap")


@pytest.fixture(scope="module", params=SHAPES)
def deep(request):
    assert sys.getrecursionlimit() < min(DEPTHS.values())
    line = deep_line(request.param, DEPTHS[request.param])
    return line, dq.parse_discbracket(line)


def test_a_deep_line_reads_back_what_it_writes(deep):
    line, tree = deep
    again = dq.parse_discbracket(line)
    assert again is not tree and again == tree and hash(again) == hash(tree)
    assert dq.parse_discbracket(dq.emit_discbracket(tree)) == tree
    assert dq.parse_bracketed(dq.emit_bracketed(tree)) == tree


@pytest.mark.parametrize("scheme", BASES)
def test_a_deep_tree_encodes_decodes_and_traces(deep, scheme):
    _, tree = deep
    scheme = dq.parse_scheme(scheme)
    tokens = dq.encode(tree, scheme)
    result = dq.decode(tree.sentence, tokens, scheme)
    assert not result.repairs and result.tree == tree
    assert len(dq.trace(len(tree.sentence), tokens, scheme)) == len(tokens) + 1


def test_a_deep_tree_is_scored_reordered_and_validated(deep):
    _, tree = deep
    assert dq.evaluate([tree], [tree]).exact_match == 1.0
    assert dq.validate(tree) is None
    flat = dq.reorder_canonical(tree)
    assert flat == tree and dq.validate(flat) is None
    assert {tree: 1}[dq.parse_discbracket(dq.emit_discbracket(tree))] == 1


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads /proc")
def test_a_5000_level_nest_stays_small():
    # ru_maxrss carries the forking process's peak across exec, so the
    # child reads the peak of its own process image, VmHWM
    script = (
        "import sys\n"
        "import discoseq as dq\n"
        "tree = dq.parse_discbracket(sys.argv[1])\n"
        "scheme = dq.parse_scheme('inorder+swap')\n"
        "result = dq.decode(tree.sentence, dq.encode(tree, scheme), scheme)\n"
        "assert not result.repairs and result.tree == tree\n"
        "assert dq.evaluate([tree], [result.tree]).exact_match == 1.0\n"
        "nest = dq.parse_discbracket(sys.argv[2])\n"
        "tokens = dq.encode(nest, scheme)\n"
        "assert len(dq.trace(len(nest.sentence), tokens, scheme)) == len(tokens) + 1\n"
        "with open('/proc/self/status') as status:\n"
        "    print(next(line.split()[1] for line in status if line.startswith('VmHWM:')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dq.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", script, deep_line("nest", 5000),
                           deep_line("nest", DEPTHS["nest"])],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    # KiB; frozenset yields took 586 MiB, and frozenset mask pairs 203 MiB
    assert int(proc.stdout) < 64 * 1024


def _reference_repr(node) -> str:
    """The repr that `dataclass` generates for a constituent, by recursion."""
    if not isinstance(node, dq.Constituent):
        return repr(node)
    children = ", ".join(_reference_repr(child) for child in node.children)
    if len(node.children) == 1:
        children += ","
    return f"Constituent(label={node.label!r}, children=({children}))"


def test_a_deep_tree_has_a_repr(deep):
    _, tree = deep
    text = repr(tree)
    assert text.startswith(f"ConstituentTree(sentence={tree.sentence!r}, root=Constituent(")
    assert text.count("Constituent(label=") == sum(1 for _ in tree.root.constituents())


@pytest.mark.parametrize("seed", range(20))
def test_repr_is_the_dataclass_form(seed):
    root = random_tree(random.Random(seed)).root
    assert repr(root) == _reference_repr(root)
    # a childless node is invalid, but prints all the same
    odd = dq.Constituent("X'", (dq.Constituent("E", ()), 3))
    assert repr(odd) == _reference_repr(odd)


def _self_calls(path: Path) -> list[str]:
    """`name(...)` or `x.name(...)` inside a function named `name`, but not
    `super().name(...)`."""
    found = []
    for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(function):
            if not isinstance(call, ast.Call):
                continue
            target = call.func
            if isinstance(target, ast.Name):
                recursive = target.id == function.name
            elif isinstance(target, ast.Attribute):
                base = target.value
                recursive = target.attr == function.name and not (
                    isinstance(base, ast.Call) and isinstance(base.func, ast.Name)
                    and base.func.id == "super")
            else:
                recursive = False
            if recursive:
                found.append(f"{path.name}:{call.lineno}: {function.name}")
    return found


def test_no_function_calls_itself():
    package = Path(dq.__file__).parent
    assert [hit for path in sorted(package.rglob("*.py")) for hit in _self_calls(path)] == []
