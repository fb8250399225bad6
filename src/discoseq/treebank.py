"""Reading and writing bracketed and discbracket treebank files.

Both formats put one tree per line.  `bracketed` is the classic
parenthesized form with implicitly numbered words:

    (S (NP John) (VP runs))

`discbracket` names the position of every word explicitly, which is what
makes discontinuous yields expressible:

    (S (VP 0=Allerdings (PP 2=in 3=bestimmten 4=Vierteln)) 1=wird 5=Wasser)

A backslash escapes the next character; words containing parentheses,
whitespace, `=`, or backslashes are escaped on output so that
parse(emit(tree)) is the identity on canonical trees.  The reader makes
one pass over a line and keeps the open constituents on a stack, so it
reads trees of any depth.
"""

import gzip
from itertools import islice
from pathlib import Path
from typing import Iterable

# validate is bound only so that a tracer can wrap discoseq.treebank.validate
from .tree import Constituent, ConstituentTree, is_continuous, validate  # noqa: F401

_WORD_ESCAPED = set("()=\\ \t\n")
_LABEL_ESCAPED = set("()\\ \t\n")  # a leading atom is always the label, so = stays raw
_SHOWN_GAPS = 10  # missing word positions listed in an error


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


def _offset_error(message: str, line: str, char_index: int) -> TreebankError:
    return TreebankError(message,
                         offset=len(line[:char_index].encode("utf-8", "surrogatepass")))


def _parse_line(line: str, discontinuous: bool) -> ConstituentTree:
    n = len(line)
    # any other backslash escapes the next character, so only an odd run
    # at the end can dangle; that fault is reported before any other
    if (n - len(line.rstrip("\\"))) % 2:
        raise _offset_error("dangling backslash escape", line, n - 1)
    words: dict[int, str] = {}  # position -> word
    # the open constituents, innermost last: (offset of "(", label, children)
    open_nodes: list[tuple[int, str, list[Constituent | int]]] = []
    label_at = -1  # offset of the "(" whose label is the next atom
    # a line of L characters holds fewer than L leaves, so a position
    # written with more digits than L is always a gap
    most_digits = len(str(n))
    i = 0
    while True:
        if i == n or (label_at >= 0 and line[i] in "()"):
            if label_at >= 0:
                raise _offset_error("expected a label after '('", line, label_at)
            if open_nodes:
                raise _offset_error("unbalanced '(': missing ')'", line, open_nodes[-1][0])
            raise TreebankError("empty line where a tree was expected", offset=0)
        if line[i] in " \t":
            i += 1
        elif line[i] == "(":
            label_at = i
            i += 1
        elif not open_nodes and label_at < 0:
            raise _offset_error("a tree must start with '('", line, i)
        elif line[i] == ")":
            start, label, children = open_nodes.pop()
            if not children:
                raise _offset_error(f"constituent {label!r} has no children", line, start)
            node = Constituent(label, tuple(children))
            i += 1
            if not open_nodes:
                break
            open_nodes[-1][2].append(node)
        else:  # an atom: its text split on unescaped "=", escapes resolved
            start = i
            parts: list[str] = []
            current: list[str] = []
            while i < n and line[i] not in "() \t":
                if line[i] == "=":
                    parts.append("".join(current))
                    current = []
                else:
                    if line[i] == "\\":  # take the next character as it is
                        i += 1
                    current.append(line[i])
                i += 1
            parts.append("".join(current))
            if label_at >= 0:
                open_nodes.append((label_at, "=".join(parts), []))
                label_at = -1
                continue
            if not discontinuous:
                index, word = len(words), "=".join(parts)
            elif len(parts) != 2 or not (parts[0].isascii() and parts[0].isdigit()):
                raise _offset_error("discbracket leaf must look like index=word", line, start)
            else:
                digits = parts[0].lstrip("0") or "0"
                if len(digits) > most_digits:
                    raise _offset_error("word position too large for its line", line, start)
                index, word = int(digits), parts[1]
            if index in words:
                raise _offset_error(f"position {index} appears twice", line, start)
            words[index] = word
            open_nodes[-1][2].append(index)
    rest = line[i:].lstrip(" \t")
    if rest:
        raise _offset_error("trailing material after the tree", line, n - len(rest))

    top = max(words)
    if top >= len(words):  # the positions are distinct, so some below top are missing
        count = top + 1 - len(words)
        shown = islice((p for p in range(top) if p not in words), _SHOWN_GAPS)
        missing = ", ".join(map(str, shown))
        if count > _SHOWN_GAPS:
            missing += f", ... ({count} in all)"
        raise TreebankError(f"missing word positions [{missing}]", offset=0)
    # no constituent is empty and each position is read once: validate() would pass
    return ConstituentTree(tuple(words[p] for p in range(len(words))), node)


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
