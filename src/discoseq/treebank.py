"""Reading and writing bracketed and discbracket treebank files.

Both formats put one tree per line.  `bracketed` is the classic
parenthesized form with implicitly numbered words:

    (S (NP John) (VP runs))

`discbracket` names the position of every word explicitly, which is what
makes discontinuous yields expressible:

    (S (VP 0=Allerdings (PP 2=in 3=bestimmten 4=Vierteln)) 1=wird 5=Wasser)

A backslash escapes the next character; words containing parentheses,
whitespace, `=`, or backslashes are escaped on output so that
parse(emit(tree)) is the identity on canonical trees.  The reader takes
a line's tokens from one compiled pattern and keeps the open
constituents on a stack, so it reads trees of any depth.
"""

import gzip
import re
from itertools import islice
from pathlib import Path
from typing import Iterable

# validate is bound only so that a tracer can wrap discoseq.treebank.validate
from .tree import Constituent, ConstituentTree, is_continuous, validate  # noqa: F401

_WORD_ESCAPED = re.compile(r"[()=\\ \t\n]")
_LABEL_ESCAPED = re.compile(r"[()\\ \t\n]")  # a leading atom is always the label, so = stays raw
# a reader's token: "(" and its label, ")", an atom, or "(" without a label
_ATOM = r"(?:[^()\\ \t]|\\.)+"
_TOKEN = re.compile(rf"\([ \t]*({_ATOM})|(\))|({_ATOM})|(\()", re.DOTALL)
_ESCAPE_OR_EQUALS = re.compile(r"\\(.)|=", re.DOTALL)
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
    return TreebankError(message, offset=len(line[:char_index].encode("utf-8", "surrogatepass")))


def _split_atom(text: str) -> list[str]:
    """An atom's text split on unescaped "=", escapes resolved."""
    pieces = _ESCAPE_OR_EQUALS.split(text)  # text, then pairs (escaped char or None, text)
    parts = [pieces[0]]
    for escaped, plain in zip(pieces[1::2], pieces[2::2]):
        if escaped is None:
            parts.append(plain)
        else:
            parts[-1] += escaped + plain
    return parts


def _parse_line(line: str, discontinuous: bool) -> ConstituentTree:
    n = len(line)
    # only an odd backslash run at the end can dangle; that is reported first
    if (n - len(line.rstrip("\\"))) % 2:
        raise _offset_error("dangling backslash escape", line, n - 1)
    words: dict[int, str] = {}  # position -> word
    # the open constituents, innermost last: (match of "(", label, children)
    open_nodes: list[tuple[re.Match, str, list[Constituent | int]]] = []
    children: list[Constituent | int] = []  # the innermost open node's
    most_digits = len(str(n))  # n characters hold fewer than n leaves
    tokens = _TOKEN.finditer(line)  # only spaces and tabs fall between tokens
    for match in tokens:
        kind = match.lastindex
        if kind == 3 and open_nodes:  # a leaf
            text = match[3]
            parts = _split_atom(text) if "\\" in text else text.split("=")
            if not discontinuous:
                index, word = len(words), "=".join(parts)
            elif len(parts) != 2 or not (parts[0].isascii() and parts[0].isdigit()):
                raise _offset_error("discbracket leaf must look like index=word",
                                    line, match.start())
            else:
                digits = parts[0].lstrip("0") or "0"
                if len(digits) > most_digits:
                    raise _offset_error("word position too large for its line",
                                        line, match.start())
                index, word = int(digits), parts[1]
            if index in words:
                raise _offset_error(f"position {index} appears twice", line, match.start())
            words[index] = word
            children.append(index)
        elif kind == 2 and open_nodes:
            opened, label, kids = open_nodes.pop()
            if not kids:
                raise _offset_error(f"constituent {label!r} has no children",
                                    line, opened.start())
            node = Constituent(label, tuple(kids))
            if not open_nodes:
                break
            children = open_nodes[-1][2]
            children.append(node)
        elif kind == 1:
            label, children = match[1], []
            if "\\" in label:
                label = "=".join(_split_atom(label))
            open_nodes.append((match, label, children))
        else:
            raise _offset_error("expected a label after '('" if kind == 4
                                else "a tree must start with '('", line, match.start())
    else:  # the line ended inside a tree, or before one
        if open_nodes:
            raise _offset_error("unbalanced '(': missing ')'", line, open_nodes[-1][0].start())
        raise TreebankError("empty line where a tree was expected", offset=0)
    if (rest := next(tokens, None)) is not None:
        raise _offset_error("trailing material after the tree", line, rest.start())

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


def _escape(text: str, escaped: re.Pattern) -> str:
    return escaped.sub(lambda match: "\\" + match[0], text)


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
    # a read keeps a byte that is not UTF-8 as a surrogate, for `_utf8_lines`
    errors = "surrogateescape" if mode == "r" else "strict"
    if path.suffix == ".gz":
        return gzip.open(path, mode + "t", encoding="utf-8", errors=errors)
    return open(path, mode, encoding="utf-8", errors=errors)


def _check_utf8(text: str, source: str, line_no: int | None = None) -> None:
    """Refuse text decoded with surrogateescape from bytes that are not
    UTF-8, as a TreebankError naming the first bad byte."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as err:
        raise TreebankError("invalid UTF-8", source=source, line_no=line_no,
                            offset=len(text[:err.start].encode("utf-8"))) from None


def _utf8_lines(lines: list[str], source: str) -> list[str]:
    """`lines`, each checked by `_check_utf8`."""
    for line_no, line in enumerate(lines, 1):
        _check_utf8(line, source, line_no)
    return lines


def _file_lines(path: str | Path) -> list[str]:
    with _open_text(path, "r") as handle:
        return _utf8_lines(handle.readlines(), str(path))


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
    """Load a treebank file; `.gz` paths are decompressed transparently,
    and a line that is not UTF-8 is a TreebankError naming it."""
    return parse_treebank(_file_lines(path), fmt, source=str(path))


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
