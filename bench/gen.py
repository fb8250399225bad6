"""Seeded synthetic discbracket treebanks for the benchmark.

A small grammar whose words depend on their category.  Clauses are a
subject NP and a VP with optional adverbs, prepositional phrases and
relative clauses; long sentences coordinate several clauses.  Three
constructions make constituents discontinuous, as in `toy20`:

* particle verbs, "picked the box up": the verb and its particle form a
  VC constituent around the object NP;
* a PP or relative clause extraposed from the subject NP past the VP,
  "a man arrived with a hat";
* a PP extraposed from the object NP past an adverb of the VP.

Words are emitted in surface order, each attached to a node; a node
covers the positions of the words below it wherever they surface.  This
module shares no code with `discoseq`: it writes trees with its own
emitter and records every tree's (label, positions) brackets, which is
what the benchmark checks the program's outputs against.
"""

import json
import math
import random
import statistics
from pathlib import Path

DET = ("the", "a", "this", "that", "every", "some")
ADJ = ("old", "big", "small", "red", "happy", "quiet", "young", "strange")
NOUN = ("dog", "cat", "man", "woman", "boy", "girl", "bird", "book", "house",
        "car", "tree", "park", "river", "plane", "letter", "city", "teacher",
        "child", "song", "table")
PRON = ("she", "he", "it", "they", "we")
V_INTR = ("ran", "slept", "laughed", "smiled", "sang", "arrived", "fell",
          "waited")
V_TR = ("saw", "liked", "chased", "found", "read", "wrote", "took", "bought",
        "watched", "met")
V_PART = (("picked", "up"), ("turned", "off"), ("put", "down"),
          ("gave", "up"), ("looked", "up"), ("threw", "away"),
          ("woke", "up"), ("brought", "back"))
PREP = ("in", "on", "with", "near", "to", "from", "under", "about")
ADV = ("quickly", "slowly", "often", "today", "yesterday", "loudly")
REL = ("who", "that", "which")
CONJ = ("and", "but", "or", ",")


class _Sentence:
    """Nodes with parent links; words attach to one node each."""

    def __init__(self, rng: random.Random, disc: float):
        self.rng = rng
        self.disc = disc
        self.words: list[str] = []
        self.labels: list[str] = []
        self.parents: list[int | None] = []
        self.leaves: list[list[int]] = []

    def node(self, label: str, parent: int | None) -> int:
        self.labels.append(label)
        self.parents.append(parent)
        self.leaves.append([])
        return len(self.labels) - 1

    def word(self, word: str, parent: int) -> None:
        self.leaves[parent].append(len(self.words))
        self.words.append(word)

    # --- grammar -----------------------------------------------------------

    def np(self, parent: int, depth: int, pronoun: bool = True,
           pp: bool = True) -> int:
        rng = self.rng
        node = self.node("NP", parent)
        if pronoun and rng.random() < 0.2:
            self.word(rng.choice(PRON), node)
            return node
        self.word(rng.choice(DET), node)
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            self.word(rng.choice(ADJ), node)
        self.word(rng.choice(NOUN), node)
        if pp and depth > 0 and rng.random() < 0.25:
            self.pp(node, depth - 1)
        return node

    def pp(self, parent: int, depth: int) -> None:
        node = self.node("PP", parent)
        self.word(self.rng.choice(PREP), node)
        self.np(node, depth, pronoun=False)

    def relative(self, parent: int, depth: int) -> None:
        node = self.node("SBAR", parent)
        self.word(self.rng.choice(REL), node)
        self.vp(node, depth, disc=False)

    def adverb(self, parent: int) -> None:
        self.word(self.rng.choice(ADV), self.node("ADVP", parent))

    def vp(self, parent: int, depth: int, disc: bool = True) -> None:
        rng = self.rng
        node = self.node("VP", parent)
        if disc and rng.random() < self.disc:
            if depth > 0 and rng.random() < 0.4:
                # the object's PP surfaces after an adverb of the VP
                self.word(rng.choice(V_TR), node)
                obj = self.np(node, depth, pronoun=False, pp=False)
                self.adverb(node)
                self.pp(obj, depth - 1)
            else:
                # particle verb wrapped around its object
                verb, particle = rng.choice(V_PART)
                complex_ = self.node("VC", node)
                self.word(verb, complex_)
                self.np(node, depth)
                self.word(particle, self.node("PRT", complex_))
            return
        kind = rng.random()
        if kind < 0.35:
            self.word(rng.choice(V_INTR), node)
        elif kind < 0.85:
            self.word(rng.choice(V_TR), node)
            self.np(node, depth)
        else:
            verb, particle = rng.choice(V_PART)
            complex_ = self.node("VC", node)
            self.word(verb, complex_)
            self.word(particle, self.node("PRT", complex_))
            self.np(node, depth)
        if depth > 0 and rng.random() < 0.3:
            self.pp(node, depth - 1)
        if rng.random() < 0.15:
            self.adverb(node)

    def clause(self, parent: int, depth: int = 2) -> None:
        rng = self.rng
        node = self.node("S", parent)
        if rng.random() < 0.1:
            self.adverb(node)
        subject = self.np(node, depth, pp=False)
        self.vp(node, depth)
        pronoun = self.words[self.leaves[subject][0]] in PRON
        if not pronoun and rng.random() < self.disc:
            # extraposed from the subject, surfacing after the VP
            if rng.random() < 0.6:
                self.pp(subject, depth - 1)
            else:
                self.relative(subject, depth - 1)

    # --- output ------------------------------------------------------------

    def brackets(self) -> list[tuple[str, list[int]]]:
        """(label, sorted positions) per node, in node order."""
        covered: list[list[int]] = [list(own) for own in self.leaves]
        for n in reversed(range(len(self.labels))):  # children follow parents
            parent = self.parents[n]
            if parent is not None:
                covered[parent].extend(covered[n])
        return [(label, sorted(pos)) for label, pos in zip(self.labels, covered)]

    def discbracket(self) -> str:
        spans = self.brackets()
        children: list[list[int]] = [[] for _ in self.labels]
        for n, parent in enumerate(self.parents):
            if parent is not None:
                children[parent].append(n)

        def render(n: int) -> str:
            items = [(spans[c][1][0], render(c)) for c in children[n]]
            items += [(p, f"{p}={self.words[p]}") for p in self.leaves[n]]
            items.sort()
            return f"({self.labels[n]} " + " ".join(text for _, text in items) + ")"

        return render(0)


def _sentence(rng: random.Random, length: int, disc: float) -> _Sentence:
    """Clauses until the sentence has exactly `length` words, retrying."""
    while True:
        sent = _Sentence(rng, disc)
        root = sent.node("ROOT", None)
        sent.clause(root)
        while len(sent.words) + 1 < length:
            sent.word(rng.choice(CONJ), root)
            sent.clause(root)
        sent.word(".", root)
        if len(sent.words) == length:
            return sent


def lengths(count: int, min_len: int, max_len: int, median_len: int) -> list[int]:
    """Sentence lengths at evenly spaced quantiles of a log-normal.

    The multiset depends only on the arguments, never on the seed, so
    every seed gives the same number of words; the tail skews long the
    way treebank sentence lengths do.
    """
    dist = statistics.NormalDist(math.log(median_len), 0.6)
    return [min(max_len, max(min_len, round(math.exp(dist.inv_cdf((i + 0.5) / count)))))
            for i in range(count)]


def generate(seed: int, count: int, min_len: int, max_len: int,
             median_len: int, disc: float) -> list[tuple[list[str], list, str]]:
    """`count` seeded trees as (words, brackets, discbracket line).

    `disc` is the per-clause chance of each discontinuous construction.
    """
    rng = random.Random(seed)
    order = lengths(count, min_len, max_len, median_len)
    rng.shuffle(order)
    out = []
    for length in order:
        sent = _sentence(rng, length, disc)
        out.append((sent.words, sent.brackets(), sent.discbracket()))
    return out


def is_gapped(positions) -> bool:
    return positions[-1] - positions[0] + 1 != len(positions)


def describe(trees) -> dict:
    """Tree count, length range and share of discontinuous trees."""
    lengths = [len(words) for words, _, _ in trees]
    disc = sum(1 for _, brackets, _ in trees
               if any(is_gapped(pos) for _, pos in brackets))
    return {"trees": len(trees), "min_len": min(lengths),
            "max_len": max(lengths),
            "mean_len": round(sum(lengths) / len(lengths), 1),
            "disc_share": round(disc / len(trees), 3)}


def write(directory: Path, name: str, trees) -> None:
    """name.discbracket, name.sentences and name.gold.json in `directory`."""
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / f"{name}.discbracket", "w", encoding="utf-8") as out:
        for _, _, line in trees:
            out.write(line + "\n")
    with open(directory / f"{name}.sentences", "w", encoding="utf-8") as out:
        for words, _, _ in trees:
            out.write(" ".join(words) + "\n")
    gold = [{"words": words, "brackets": brackets} for words, brackets, _ in trees]
    with open(directory / f"{name}.gold.json", "w", encoding="utf-8") as out:
        json.dump(gold, out)
