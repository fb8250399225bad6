"""Reading and writing bracketed and discbracket treebank files.

Both formats put one tree per line.  `bracketed` is the classic
parenthesized form with implicitly numbered words:

    (S (NP John) (VP runs))

`discbracket` names the position of every word explicitly, which is what
makes discontinuous yields expressible:

    (S (VP 0=Allerdings (PP 2=in 3=bestimmten 4=Vierteln)) 1=wird 5=Wasser)

A backslash escapes the next character; words containing parentheses,
whitespace, `=`, or backslashes are escaped on output so that
parse(emit(tree)) is the identity on canonical trees.
"""

import gzip
from pathlib import Path
from typing import Iterable

from .tree import Constituent, ConstituentTree, is_continuous, validate

_WORD_ESCAPED = set("()=\\ \t\n")
_LABEL_ESCAPED = set("()\\ \t\n")  # a leading atom is always the label, so = stays raw


class TreebankError(Exception):
    """Malformed treebank input.

    Its text names the source and the 1-based line number when they
    are known, and the byte offset within the line.
    """

    def __init__(self, message: str, *, source: str | None = None,
                 line_no: int | None = None, offset: int | None = None):
        super().__init__(message)
        self.message = message
        self.source = source
        self.line_no = line_no
        self.offset = offset

    def __str__(self) -> str:
        text = self.message
        if self.line_no is not None:
            text = f"line {self.line_no}: {text}"
        if self.source is not None:
            text = f"{self.source}: {text}"
        if self.offset is not None:
            text += f" at byte {self.offset}"
        return text


# A token is ("(", offset), (")", offset), or ("atom", offset, parts) where
# parts is the atom text split on unescaped "=" with escapes resolved.
def _tokenize(line: str) -> list[tuple]:
    tokens: list[tuple] = []
    i = 0
    n = len(line)
    while i < n:
        ch = line[i]
        if ch in " \t":
            i += 1
            continue
        if ch in "()":
            tokens.append((ch, i))
            i += 1
            continue
        start = i
        parts: list[str] = []
        current: list[str] = []
        while i < n and line[i] not in "() \t":
            if line[i] == "\\":
                if i + 1 >= n:
                    raise _offset_error("dangling backslash escape", line, i)
                current.append(line[i + 1])
                i += 2
            elif line[i] == "=":
                parts.append("".join(current))
                current = []
                i += 1
            else:
                current.append(line[i])
                i += 1
        parts.append("".join(current))
        tokens.append(("atom", start, parts))
    return tokens


def _byte_offset(line: str, char_index: int) -> int:
    return len(line[:char_index].encode("utf-8"))


def _offset_error(message: str, line: str, char_index: int) -> TreebankError:
    return TreebankError(message, offset=_byte_offset(line, char_index))


def _parse_line(line: str, discontinuous: bool) -> ConstituentTree:
    tokens = _tokenize(line)
    if not tokens:
        raise TreebankError("empty line where a tree was expected", offset=0)
    if tokens[0][0] != "(":
        raise _offset_error("a tree must start with '('", line, tokens[0][1])
    words: dict[int, str] = {}  # position -> word
    # the open constituents, innermost last: (offset of "(", label, children)
    open_nodes: list[tuple[int, str, list[Constituent | int]]] = []
    pos = 0  # cursor into tokens
    while True:
        token = tokens[pos]
        if token[0] == "(":
            pos += 1
            if pos >= len(tokens) or tokens[pos][0] != "atom":
                raise _offset_error("expected a label after '('", line, token[1])
            open_nodes.append((token[1], "=".join(tokens[pos][2]), []))
        elif token[0] == ")":
            start, label, children = open_nodes.pop()
            if not children:
                raise _offset_error(f"constituent {label!r} has no children",
                                    line, start)
            node = Constituent(label, tuple(children))
            if not open_nodes:
                pos += 1
                break
            open_nodes[-1][2].append(node)
        else:
            _, start, parts = token
            if not discontinuous:
                index, word = len(words), "=".join(parts)
            elif len(parts) != 2 or not parts[0].isdigit():
                raise _offset_error(
                    "discbracket leaf must look like index=word", line, start)
            else:
                index, word = int(parts[0]), parts[1]
            if index in words:
                raise _offset_error(f"position {index} appears twice", line, start)
            words[index] = word
            open_nodes[-1][2].append(index)
        pos += 1
        if pos >= len(tokens):
            raise _offset_error("unbalanced '(': missing ')'", line, open_nodes[-1][0])
    if pos != len(tokens):
        raise _offset_error("trailing material after the tree", line, tokens[pos][1])

    if words and sorted(words) != list(range(max(words) + 1)):
        missing = sorted(set(range(max(words) + 1)) - set(words))
        raise TreebankError(f"missing word positions {missing}", offset=0)
    sentence = tuple(words[i] for i in range(len(words)))
    tree = ConstituentTree(sentence, node)
    violation = validate(tree)
    if violation is not None:
        raise TreebankError(f"invalid tree: {violation.rule}: {violation.detail}",
                            offset=0)
    return tree


def parse_bracketed(line: str) -> ConstituentTree:
    """Parse one bracketed tree; words are numbered left to right from 0."""
    return _parse_line(line, discontinuous=False)


def parse_discbracket(line: str) -> ConstituentTree:
    """Parse one discbracket tree with explicit index=word leaves."""
    return _parse_line(line, discontinuous=True)


def _escape(text: str, escaped: set[str]) -> str:
    return "".join("\\" + ch if ch in escaped else ch for ch in text)


def _render(tree: ConstituentTree, numbered: bool) -> str:
    """One line of brackets; `numbered` leaves are written position=word."""
    pieces: list[str] = []  # each opens with the space before it
    pending: list[Constituent | int | str] = [tree.root]  # next on top
    while pending:
        item = pending.pop()
        if isinstance(item, Constituent):
            pieces.append(" (" + _escape(item.label, _LABEL_ESCAPED))
            pending.append(")")
            pending.extend(reversed(item.children))
        elif isinstance(item, int):
            word = _escape(tree.sentence[item], _WORD_ESCAPED)
            pieces.append(f" {item}={word}" if numbered else " " + word)
        else:
            pieces.append(item)
    return "".join(pieces)[1:]


def emit_bracketed(tree: ConstituentTree) -> str:
    """Render a continuous tree as a single bracketed line."""
    if not is_continuous(tree):
        raise TreebankError(
            "tree has discontinuous constituents; emit_discbracket can express them")
    return _render(tree, numbered=False)


def emit_discbracket(tree: ConstituentTree) -> str:
    """Render any tree as a single discbracket line."""
    return _render(tree, numbered=True)


def _open_text(path: str | Path, mode: str):
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def parse_treebank(lines: Iterable[str], fmt: str = "discbracket", *,
                   source: str | None = None) -> tuple[ConstituentTree, ...]:
    """Parse one tree per line; blank lines are skipped.

    The first malformed line raises TreebankError carrying the source
    name, 1-based line number, and byte offset.
    """
    if fmt not in ("bracketed", "discbracket"):
        raise ValueError(f"unknown treebank format {fmt!r}")
    discontinuous = fmt == "discbracket"
    trees: list[ConstituentTree] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            trees.append(_parse_line(line.rstrip("\n"), discontinuous))
        except TreebankError as err:
            raise TreebankError(err.message, source=source,
                                line_no=line_no, offset=err.offset) from err
    return tuple(trees)


def load_treebank(path: str | Path,
                  fmt: str = "discbracket") -> tuple[ConstituentTree, ...]:
    """Load a treebank file; `.gz` paths are decompressed transparently."""
    with _open_text(path, "r") as handle:
        return parse_treebank(handle, fmt, source=str(path))


def save_treebank(trees: Iterable[ConstituentTree], path: str | Path,
                  fmt: str = "discbracket") -> None:
    """Write one tree per line with a single newline terminator each."""
    emit = {"bracketed": emit_bracketed, "discbracket": emit_discbracket}[fmt]
    with _open_text(path, "w") as handle:
        for tree in trees:
            handle.write(emit(tree))
            handle.write("\n")


def bundled(name: str) -> tuple[ConstituentTree, ...]:
    """Load one of the treebanks shipped inside the package.

    Format follows the file extension; see the data/ directory for
    what is available (e.g. "toy20.discbracket", "cont5.bracketed").
    """
    from importlib.resources import files
    fmt = "discbracket" if name.endswith(".discbracket") else "bracketed"
    resource = files(__package__).joinpath("data", name)
    if not resource.is_file():
        raise TreebankError(f"no bundled treebank named {name!r}")
    with resource.open("r", encoding="utf-8") as handle:
        return parse_treebank(handle, fmt, source=name)
