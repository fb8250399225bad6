"""Output checks that share no code with `discoseq`.

Each check returns a list of problems, empty when the output is right.
Trees are compared as multisets of (label, positions) brackets, read
either from discbracket text by the small reader below or from the
`.label`/`.children` fields of returned tree objects.
"""

import re
from collections import Counter

_TOKEN = re.compile(r"\(|\)|[^\s()]+")
_REDUCE_K = re.compile(r"REDUCE#(\d+)\(.+\)$")
_SHIFT_K = re.compile(r"SHIFT#\d+$")
_SWAP_K = re.compile(r"SWAP#(\d+)$")
_RULE_COUNT = re.compile(r"\bR\d x(\d+)")


def bracket_multiset(brackets) -> Counter:
    """Counter of (label, sorted positions tuple) from [label, positions] pairs."""
    return Counter((label, tuple(sorted(positions))) for label, positions in brackets)


def read_discbracket(line: str) -> tuple[dict[int, str], Counter]:
    """Words by position and the bracket multiset of one discbracket line."""
    words: dict[int, str] = {}
    brackets: Counter = Counter()
    stack: list[tuple[str, list[int]]] = []
    tokens = _TOKEN.findall(line)
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token == "(":
            stack.append((tokens[i + 1], []))
            i += 2
            continue
        if token == ")":
            label, positions = stack.pop()
            brackets[(label, tuple(sorted(positions)))] += 1
            if stack:
                stack[-1][1].extend(positions)
        else:
            index, _, word = token.partition("=")
            words[int(index)] = word
            stack[-1][1].append(int(index))
        i += 1
    if stack:
        raise ValueError(f"unbalanced tree: {line!r}")
    return words, brackets


def check_tree_line(line: str, gold: dict) -> list[str]:
    """A delinearized tree against the generator's words and brackets."""
    words, brackets = read_discbracket(line)
    problems = []
    if [words.get(i) for i in range(len(words))] != gold["words"]:
        problems.append("words differ from the generator's sentence")
    if brackets != bracket_multiset(gold["brackets"]):
        problems.append("brackets differ from the generator's tree")
    return problems


def check_token_line(tokens: list[str], scheme: str, gold: dict) -> list[str]:
    """Counting laws every correct token line obeys under `scheme`."""
    n_words = len(gold["words"])
    n_nodes = len(gold["brackets"])
    base = scheme.split("+")[0]
    problems = []
    shifts = sum(1 for t in tokens if t == "SHIFT" or _SHIFT_K.match(t))
    returned = 0
    for t in tokens:
        if t == "SWAP":
            returned += 1
        elif (m := _SWAP_K.match(t)):
            returned += int(m.group(1))
    if shifts - returned != n_words:
        problems.append(f"{shifts} shifts - {returned} swapped back != {n_words} words")
    if base in ("topdown", "inorder"):
        opens = sum(1 for t in tokens if t.startswith("NT("))
        closes = sum(1 for t in tokens if t == "REDUCE")
        if opens != n_nodes or closes != n_nodes:
            problems.append(f"{opens} NT / {closes} REDUCE for {n_nodes} constituents")
    else:
        ks = [int(m.group(1)) for t in tokens if (m := _REDUCE_K.match(t))]
        if len(ks) != n_nodes or sum(ks) != n_words + n_nodes - 1:
            problems.append(f"{len(ks)} REDUCE#k summing to {sum(ks)} for "
                            f"{n_nodes} constituents over {n_words} words")
    finishes = [i for i, t in enumerate(tokens) if t == "FINISH"]
    expected = [] if base == "topdown" else [len(tokens) - 1]
    if finishes != expected:
        problems.append(f"FINISH at {finishes}, expected at {expected}")
    return problems


def tree_brackets(tree, n_words: int) -> tuple[Counter, list[str]]:
    """Brackets of a returned tree object, and its validity problems.

    Valid means: every node has children, sibling yields are disjoint,
    and the leaves are exactly the positions 0..n_words-1, once each.
    """
    brackets: Counter = Counter()
    problems: list[str] = []
    leaves: list[int] = []

    def walk(node) -> list[int]:
        if not node.children:
            problems.append(f"empty constituent {node.label!r}")
        covered: list[int] = []
        for child in node.children:
            if isinstance(child, int):
                leaves.append(child)
                covered.append(child)
            else:
                covered.extend(walk(child))
        if len(set(covered)) != len(covered):
            problems.append(f"overlapping children under {node.label!r}")
        brackets[(node.label, tuple(sorted(covered)))] += 1
        return covered

    walk(tree.root)
    if sorted(leaves) != list(range(n_words)):
        problems.append("leaves are not exactly the sentence positions")
    return brackets, problems


def gapped(positions) -> bool:
    """True for a discontinuous yield (sorted positions with a gap)."""
    return positions[-1] - positions[0] + 1 != len(positions)


def _f1(matched: int, gold: int, predicted: int) -> float:
    """Labeled F1 on a 0-100 scale; an empty side counts as 100."""
    precision = 100.0 * matched / predicted if predicted else 100.0
    recall = 100.0 * matched / gold if gold else 100.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def bracket_scores(golds: list[Counter], preds: list[Counter]) -> tuple[float, float]:
    """Micro-averaged labeled F1 and discontinuous-only F1 (DF1).

    The root bracket is kept and nothing is removed as punctuation.
    """
    totals = [0] * 6
    for gold, pred in zip(golds, preds, strict=True):
        matched = gold & pred
        for i, items in enumerate((matched, gold, pred)):
            totals[i] += sum(items.values())
            totals[i + 3] += sum(n for key, n in items.items() if gapped(key[1]))
    return _f1(*totals[:3]), _f1(*totals[3:])


def flat_brackets(root_label: str, n_words: int) -> Counter:
    """The flat-tree baseline: every word directly under the root."""
    return Counter({(root_label, tuple(range(n_words))): 1})


def same_scores(report, f1: float, disc_f1: float) -> list[str]:
    """The program's F1 and DF1 against the benchmark's own matching."""
    problems = []
    for name, theirs, ours in (("f1", report.labeled.f1, f1),
                               ("disc_f1", report.discontinuous.f1, disc_f1)):
        if abs(theirs - ours) > 1e-9:
            problems.append(f"reported {name} {theirs!r}, bracket matching gives {ours!r}")
    return problems


def summary_repairs(summary: str) -> int:
    """Repairs named in a `delinearize` summary line ("... (R1 x3, R2 x1)")."""
    return sum(int(n) for n in _RULE_COUNT.findall(summary))
