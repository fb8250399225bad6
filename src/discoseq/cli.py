"""Command line interface.

One executable, subcommand per pipeline stage: linearize trees to
token sequences, delinearize sequences back to trees, check the
round trip, report token dictionary statistics, dump mask traces,
score treebanks, and train/run the toy model.

Machine output goes to standard out, diagnostics to standard error.
Exit codes: 0 success, 1 usage error, 2 data error, 3 broken
invariant.
"""

import argparse
import functools
import json
import re
import sys
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from multiprocessing import Pool

from . import __version__
from .decode import decode
from .masks import trace
from .metrics import MetricsError, PairCounts, pair_counts, summarize
from .oracle import EncodeError, OracleInvariantError, encode, vocab_stats
from .transitions import (IllegalTransition, Scheme, format_transitions,
                          parse_scheme, parse_transitions)
from .tree import ConstituentTree
from .treebank import (TreebankError, _open_text, emit_discbracket,
                       parse_bracketed, parse_discbracket, parse_treebank)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _scheme_arg(text: str) -> Scheme:
    try:
        return parse_scheme(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _d_model(text: str) -> int:
    """A width the model accepts; ModelConfig holds the rule."""
    from .neural.model import BOS, UNK, ModelConfig  # only train takes it
    d_model = _positive_int(text)
    try:
        ModelConfig(scheme="", word_to_id={UNK: 0}, token_to_id={BOS: 0},
                    d_model=d_model)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return d_model


def _open_in(path: str):
    return nullcontext(sys.stdin) if path == "-" else _open_text(path, "r")


def _open_out(path: str):
    return nullcontext(sys.stdout) if path == "-" else _open_text(path, "w")


def _numbered_lines(handle) -> list[tuple[int, str]]:
    """The non-blank lines as read, without the newline, and their numbers."""
    return [(no, line.rstrip("\n")) for no, line in enumerate(handle, 1)
            if line.strip()]


def _source(path: str) -> str:
    return "<stdin>" if path == "-" else path


@contextmanager
def _at_line(source: str, line_no: int):
    """Name the source and line of a data error raised in the block.

    A TreebankError keeps its message and byte offset; any other
    ValueError becomes a TreebankError with its text.
    """
    try:
        yield
    except TreebankError as err:
        raise TreebankError(err.message, source=source, line_no=line_no,
                            offset=err.offset) from None
    except ValueError as err:
        raise TreebankError(str(err), source=source, line_no=line_no) from None


def _read_treebank(path: str, fmt: str):
    """The trees of a file and the 1-based line number of each."""
    with _open_in(path) as handle:
        lines = handle.readlines()
    trees = parse_treebank(lines, fmt, source=_source(path))
    return trees, [line_no for line_no, _ in _numbered_lines(lines)]


@contextmanager
def _naming_unencodable(trees, line_nos: list[int], scheme: Scheme, source: str):
    """Report an EncodeError as the line of the first tree that fails."""
    try:
        yield
    except EncodeError:
        for tree, line_no in zip(trees, line_nos):
            with _at_line(source, line_no):
                encode(tree, scheme)
        raise


def _mapped(func, items, jobs):
    if jobs > 1:
        with Pool(jobs) as pool:
            yield from pool.imap(func, items, chunksize=8)
    else:
        for item in items:
            yield func(item)


# --- linearize -------------------------------------------------------------

def _linearize_item(item: tuple[int, ConstituentTree], scheme: Scheme,
                    jsonl: bool, source: str) -> str:
    line_no, tree = item
    with _at_line(source, line_no):
        tokens = encode(tree, scheme)
    if jsonl:
        return json.dumps({"sentence": list(tree.sentence),
                           "scheme": str(scheme),
                           "tokens": [str(t) for t in tokens]},
                          ensure_ascii=False)
    return format_transitions(tokens)


def _cmd_linearize(args) -> int:
    trees, line_nos = _read_treebank(args.infile, args.format)
    worker = functools.partial(_linearize_item, scheme=args.scheme,
                               jsonl=args.jsonl, source=_source(args.infile))
    rendered = list(_mapped(worker, zip(line_nos, trees), args.jobs))
    with _open_out(args.outfile) as out:
        for line in rendered:
            print(line, file=out)
    return EXIT_OK


# --- delinearize -----------------------------------------------------------

def _delinearize_item(item: tuple[int, list[str], list[str]], scheme: Scheme,
                      fallback: str, source: str):
    line_no, words, token_texts = item
    with _at_line(source, line_no):
        tokens = parse_transitions(" ".join(token_texts))
        result = decode(words, tokens, scheme, fallback)
    return emit_discbracket(result.tree), result.repairs, len(result.label_mismatches)


def _is_string_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _delinearize_items(args) -> list[tuple[int, list[str], list[str]]]:
    source = _source(args.tokens)
    with _open_in(args.tokens) as handle:
        token_lines = _numbered_lines(handle)
    sentences = None
    if args.sentences is not None:
        with _open_in(args.sentences) as handle:
            sentences = [line.split() for _, line in _numbered_lines(handle)]
        if len(sentences) != len(token_lines):
            raise TreebankError(f"{len(sentences)} sentences but "
                                f"{len(token_lines)} token lines")
    items = []
    for index, (line_no, line) in enumerate(token_lines):
        if line.lstrip().startswith("{"):
            with _at_line(source, line_no):
                try:
                    record = json.loads(line)
                    words = record["sentence"]
                    token_texts = record["tokens"]
                except (ValueError, KeyError, TypeError) as err:
                    raise ValueError(f"bad JSONL record: {err}") from None
                if not (_is_string_list(words) and _is_string_list(token_texts)):
                    raise ValueError("bad JSONL record: sentence and tokens must "
                                     "be lists of strings")
                recorded = record.get("scheme")
                if recorded is not None and recorded != str(args.scheme):
                    raise ValueError(f"tokens were produced under scheme "
                                     f"{recorded!r}, not {args.scheme}")
        else:
            if sentences is None:
                raise TreebankError(
                    "token text input needs --sentences (or use JSONL input)")
            words = sentences[index]
            token_texts = line.split()
        items.append((line_no, words, token_texts))
    return items


def _cmd_delinearize(args) -> int:
    items = _delinearize_items(args)
    worker = functools.partial(_delinearize_item, scheme=args.scheme,
                               fallback=args.fallback_label,
                               source=_source(args.tokens))
    rule_counts: Counter = Counter()
    repaired = 0
    mismatches = 0
    with _open_out(args.outfile) as out:
        for rendered, repairs, n_mismatches in _mapped(worker, items, args.jobs):
            print(rendered, file=out)
            if repairs:
                repaired += 1
                rule_counts.update(repair.rule for repair in repairs)
            mismatches += n_mismatches
    summary = f"{len(items)} trees, {repaired} repaired"
    if rule_counts:
        detail = ", ".join(f"{rule} x{count}"
                           for rule, count in sorted(rule_counts.items()))
        summary += f" ({detail})"
    if mismatches:
        summary += f", {mismatches} label mismatches"
    print(summary, file=sys.stderr)
    return EXIT_OK


# --- roundtrip -------------------------------------------------------------

def _cmd_roundtrip(args) -> int:
    trees, line_nos = _read_treebank(args.infile, args.format)
    source = _source(args.infile)
    failures = 0
    for line_no, tree in zip(line_nos, trees):
        with _at_line(source, line_no):
            tokens = encode(tree, args.scheme)
        result = decode(list(tree.sentence), tokens, args.scheme)
        identical = (result.tree.root == tree.root
                     and list(result.tree.sentence) == list(tree.sentence))
        if identical and result.clean and not result.label_mismatches:
            continue
        failures += 1
        print(f"line {line_no}: MISMATCH")
        print(f"  input:   {emit_discbracket(tree)}")
        print(f"  decoded: {emit_discbracket(result.tree)}")
        for repair in result.repairs:
            print(f"  repair:  {repair.rule} at step {repair.step}: "
                  f"{repair.detail}")
    print(f"roundtrip: {len(trees) - failures}/{len(trees)} trees reproduced",
          file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


# --- stats -----------------------------------------------------------------

def _cmd_stats(args) -> int:
    trees, line_nos = _read_treebank(args.infile, args.format)
    with _naming_unencodable(trees, line_nos, args.scheme, _source(args.infile)):
        stats = vocab_stats(trees, args.scheme)
    print("scheme\tsize\tmax_length")
    print(f"{args.scheme}\t{stats.size}\t{stats.max_length}")
    if args.dictionary:
        for token in sorted(stats.dictionary):
            print(token)
    return EXIT_OK


# --- mask-trace ------------------------------------------------------------

def _format_positions(positions: frozenset[int]) -> str:
    return "{" + ",".join(str(p) for p in sorted(positions)) + "}"


def _cmd_mask_trace(args) -> int:
    text = args.tree.rstrip("\n")
    if args.format == "auto":
        fmt = "discbracket" if re.search(r"(?<!\\)=", text) else "bracketed"
    else:
        fmt = args.format
    tree = (parse_discbracket if fmt == "discbracket" else parse_bracketed)(text)
    tokens = encode(tree, args.scheme)
    pairs = trace(len(tree.sentence), tokens, args.scheme)
    print("step\ttoken\tstack\tbuffer")
    for step_no, pair in enumerate(pairs):
        token = str(tokens[step_no - 1]) if step_no else "-"
        print(f"{step_no}\t{token}\t{_format_positions(pair.stack_positions)}"
              f"\t{_format_positions(pair.buffer_positions)}")
    return EXIT_OK


# --- eval ------------------------------------------------------------------

def _eval_item(item, remove_punctuation: bool, ignore_root: bool,
               source: str) -> PairCounts:
    line_no, gold_tree, predicted_tree = item
    with _at_line(source, line_no):
        return pair_counts(gold_tree, predicted_tree,
                           remove_punctuation=remove_punctuation,
                           ignore_root=ignore_root)


def _cmd_eval(args) -> int:
    gold, _ = _read_treebank(args.gold, args.format)
    predicted, line_nos = _read_treebank(args.pred, args.format)
    if len(gold) != len(predicted):
        raise MetricsError(f"treebank sizes differ: {len(gold)} gold vs "
                           f"{len(predicted)} predicted")
    worker = functools.partial(_eval_item, remove_punctuation=args.no_punct,
                               ignore_root=args.ignore_root,
                               source=_source(args.pred))
    items = list(zip(line_nos, gold, predicted))
    counts = list(_mapped(worker, items, args.jobs))
    report = summarize(counts)
    if args.json:
        print(json.dumps({
            "sentences": report.trees,
            "exact_match": report.exact_match,
            "labeled": asdict(report.labeled),
            "discontinuous": asdict(report.discontinuous),
            "per_sentence": [asdict(c) for c in counts],
        }))
        return EXIT_OK
    rows = [
        ("sentences", f"{report.trees}"),
        ("exact_match", f"{100.0 * report.exact_match:.2f}"),
        ("labeled_precision", f"{report.labeled.precision:.2f}"),
        ("labeled_recall", f"{report.labeled.recall:.2f}"),
        ("labeled_f1", f"{report.labeled.f1:.2f}"),
        ("disc_precision", f"{report.discontinuous.precision:.2f}"),
        ("disc_recall", f"{report.discontinuous.recall:.2f}"),
        ("disc_f1", f"{report.discontinuous.f1:.2f}"),
    ]
    for key, value in rows:
        print(f"{key:<18} {value:>8}")
    if report.discontinuous.zero_denominator:
        print("note: no discontinuous items on one side; those scores are "
              "100.0 by convention")
    return EXIT_OK


# --- train / predict -------------------------------------------------------

def _cmd_train(args) -> int:
    from .neural import save_checkpoint, train
    gold, line_nos = _read_treebank(args.infile, args.format)
    overrides = {name: value for name, value in (
        ("epochs", args.epochs), ("seed", args.seed),
        ("d_model", args.d_model)) if value is not None}
    with _naming_unencodable(gold, line_nos, args.scheme, _source(args.infile)):
        result = train(
            gold, args.scheme,
            early_stop_accuracy=args.early_stop_accuracy,
            log=lambda s: print(f"epoch {s.epoch} loss {s.loss:.4f} "
                                f"acc {s.token_accuracy:.3f} lr {s.lr:.2e}",
                                file=sys.stderr),
            **overrides)
    save_checkpoint(args.outfile, result.params, result.config)
    last = result.history[-1]
    print(f"trained {last.epoch} epochs, final loss {last.loss:.4f}, "
          f"token accuracy {last.token_accuracy:.3f}; saved {args.outfile}",
          file=sys.stderr)
    return EXIT_OK


def _cmd_predict(args) -> int:
    from .neural import load_checkpoint, predict
    params, config = load_checkpoint(args.checkpoint)
    scheme = parse_scheme(config.scheme)
    with _open_in(args.infile) as handle:
        sentences = [(no, line.split()) for no, line in _numbered_lines(handle)]
    repaired = 0
    with _open_out(args.outfile) as out:
        for line_no, words in sentences:
            with _at_line(_source(args.infile), line_no):
                prediction = predict(params, config, words, beam_size=args.beam,
                                     max_len=args.max_len)
            result = decode(words, list(prediction.tokens), scheme,
                            args.fallback_label)
            if not result.clean:
                repaired += 1
            print(emit_discbracket(result.tree), file=out)
    print(f"{len(sentences)} sentences, {repaired} repaired", file=sys.stderr)
    return EXIT_OK


# --- parser ----------------------------------------------------------------

def _add_scheme(sub) -> None:
    sub.add_argument("--scheme", type=_scheme_arg, required=True,
                     metavar="S",
                     help="topdown | inorder | bottomup, optionally with "
                          "+swap / +swapk / +shiftk and :enriched")


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=("discbracket", "bracketed"),
                     default="discbracket", help="treebank line format")


def _add_jobs(sub) -> None:
    sub.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                     help="process items with N workers (order is preserved)")


def _build_parser() -> _Parser:
    parser = _Parser(prog="discoseq",
                     description="Discontinuous constituency trees as "
                                 "transition-token sequences.")
    parser.add_argument("--version", action="version",
                        version=f"discoseq {__version__}")
    commands = parser.add_subparsers(dest="command", required=True,
                                     metavar="COMMAND", parser_class=_Parser)

    sub = commands.add_parser("linearize", help="encode trees as token lines")
    _add_scheme(sub)
    sub.add_argument("--in", dest="infile", default="-", metavar="FILE")
    sub.add_argument("--out", dest="outfile", default="-", metavar="FILE")
    _add_format(sub)
    sub.add_argument("--jsonl", action="store_true",
                     help="emit {sentence, scheme, tokens} JSON per line")
    _add_jobs(sub)
    sub.set_defaults(handler=_cmd_linearize)

    sub = commands.add_parser("delinearize",
                              help="decode token lines back to trees")
    _add_scheme(sub)
    sub.add_argument("--tokens", default="-", metavar="FILE",
                     help="token lines or JSONL (default: stdin)")
    sub.add_argument("--sentences", default=None, metavar="FILE",
                     help="one space-separated sentence per line; required "
                          "for plain token input")
    sub.add_argument("--out", dest="outfile", default="-", metavar="FILE")
    sub.add_argument("--fallback-label", default="ROOT", metavar="X",
                     help="root label used when repairing leftovers")
    _add_jobs(sub)
    sub.set_defaults(handler=_cmd_delinearize)

    sub = commands.add_parser("roundtrip",
                              help="verify decode(encode(t)) = t per tree")
    _add_scheme(sub)
    sub.add_argument("--in", dest="infile", default="-", metavar="FILE")
    _add_format(sub)
    sub.set_defaults(handler=_cmd_roundtrip)

    sub = commands.add_parser("stats",
                              help="token dictionary size and max length")
    _add_scheme(sub)
    sub.add_argument("--in", dest="infile", default="-", metavar="FILE")
    _add_format(sub)
    sub.add_argument("--dictionary", action="store_true",
                     help="also list every token in the dictionary")
    sub.set_defaults(handler=_cmd_stats)

    sub = commands.add_parser("mask-trace",
                              help="per-step stack/buffer mask table")
    _add_scheme(sub)
    sub.add_argument("--tree", required=True, metavar="TREE",
                     help="one tree, bracketed or discbracket")
    sub.add_argument("--format", choices=("auto", "discbracket", "bracketed"),
                     default="auto")
    sub.set_defaults(handler=_cmd_mask_trace)

    sub = commands.add_parser("eval", help="labeled bracketing F1 / DF1")
    sub.add_argument("--gold", required=True, metavar="FILE")
    sub.add_argument("--pred", required=True, metavar="FILE")
    _add_format(sub)
    sub.add_argument("--no-punct", action="store_true",
                     help="remove punctuation from yields before matching")
    sub.add_argument("--ignore-root", action="store_true",
                     help="drop the root bracket of every tree")
    sub.add_argument("--json", action="store_true",
                     help="machine-readable report with per-sentence counts")
    _add_jobs(sub)
    sub.set_defaults(handler=_cmd_eval)

    sub = commands.add_parser("train", help="fit the toy model")
    _add_scheme(sub)
    sub.add_argument("--in", dest="infile", default="-", metavar="FILE")
    _add_format(sub)
    sub.add_argument("--out", dest="outfile", required=True, metavar="CKPT",
                     help="checkpoint file to write")
    sub.add_argument("--epochs", type=_positive_int, default=None)
    sub.add_argument("--seed", type=_non_negative_int, default=None)
    sub.add_argument("--d-model", type=_d_model, default=None)
    sub.add_argument("--early-stop-accuracy", type=float, default=None,
                     metavar="A", help="stop once teacher-forced token "
                                       "accuracy reaches A (0..1)")
    sub.set_defaults(handler=_cmd_train)

    sub = commands.add_parser("predict", help="parse raw sentences")
    sub.add_argument("--checkpoint", required=True, metavar="CKPT")
    sub.add_argument("--beam", type=_positive_int, default=10)
    sub.add_argument("--in", dest="infile", default="-", metavar="FILE",
                     help="one space-separated sentence per line")
    sub.add_argument("--out", dest="outfile", default="-", metavar="FILE")
    sub.add_argument("--max-len", type=_positive_int, default=None)
    sub.add_argument("--fallback-label", default="ROOT", metavar="X")
    sub.set_defaults(handler=_cmd_predict)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BrokenPipeError:
        return EXIT_OK
    except (OracleInvariantError, IllegalTransition) as err:
        print(f"discoseq: invariant breach: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    except (TreebankError, ValueError, OSError) as err:
        print(f"discoseq: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
