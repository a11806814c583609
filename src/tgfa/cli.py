"""Command-line front end.

Each stage of the experiment pipeline is independently invocable
(normalize, tokenize, split, build-dict, train-lm, translit, score, ...)
and `pipeline` chains them end to end. Commands never mutate their
inputs. Artifacts go only to `-o`/`--output` or `--out`, each file
written whole by `script.write_utf8`; an `--out` directory must be
empty or absent, and is built aside and renamed into place, so a run
leaves all of it or none (`_run_directory`). Every emitted report
embeds the tool version, seed, a config hash and the input file digests,
so a rerun with the same seed and config is byte-identical.

The parser is the standard library's argparse, built from one table,
COMMANDS: each command's function and the arguments of each of its
options' add_argument call. Every flag can also be set through an
environment variable named after the command and the long flag,
TGFA_<COMMAND>_<FLAG> (e.g. TGFA_PIPELINE_SEED for `tgfa pipeline --seed`,
TGFA_TRANSLIT_INPUT for `tgfa translit -i/--input`). A variable counts
only when the command line does not give its flag; its value then
becomes an argument placed before the command line's own, so it passes
the same checks as the flag's.

A command imports only the tgfa modules it runs: corpus, metrics,
tokenizer and translit are imported inside the commands and helpers
that use them, so `normalize` loads none of them. No module loads
`logging`, `dataclasses` or `importlib.resources`, which would cost
more start-up than the lines they serve. The option table reads the
directions and the decoder defaults from script.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from contextlib import contextmanager
from itertools import takewhile
from pathlib import Path
from stat import S_ISDIR
from typing import TYPE_CHECKING, Callable, Iterable, NoReturn, Sequence

# SHA-256 from CPython's built-in module, resolved once: hashlib always
# loads OpenSSL's libcrypto, several MB resident in every command.
try:
    from _sha2 import sha256  # CPython 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10 and 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .errors import ConfigError, LengthMismatch, MarkerCollision, ParseError, TgfaError, TooSmall
from .script import DEFAULT_BEAM, DEFAULT_LM_ORDER, DIRECTIONS, FARSI_LETTERS, SMOOTHINGS, TAJIK_LETTERS
from .script import Direction, NormMode, Script, load_char_table, normalize_text, parse_json_object, read_lines
from .script import temporary_sibling, write_utf8

if TYPE_CHECKING:
    from .corpus import ParallelPair

# A system's score rows, the form of every score table and file: the
# rows of metrics.score_corpus, one per group and then "Overall", each
# holding "group", "n_pairs" and the METRIC_COLUMNS, with "system" added.
ScoreRows = list[dict]
METRIC_COLUMNS = ("chrf", "chrf_pp", "cer", "ncer", "acc", "acc_no_ws")
METRIC_LABELS = {
    "chrf": "chrF",
    "chrf_pp": "chrF++",
    "cer": "CER",
    "ncer": "NCER",
    "acc": "Acc%",
    "acc_no_ws": "Acc%NoWS",
}
# Lower is better for the two error metrics.
LOWER_IS_BETTER = {"cer", "ncer"}


# One option: the flags and the keywords of its add_argument call.
Option = tuple[tuple[str, ...], dict]
# Each command's function and options, in the order `tgfa -h` lists them.
COMMANDS: dict[str, tuple[Callable[..., None], list[Option]]] = {}


def _opt(*flags: str, **kwargs) -> Option:
    return flags, kwargs


def _command(name: str, *options: Option):
    """Enter the decorated function in COMMANDS as command ``name``; its docstring is the help."""

    def register(func):
        COMMANDS[name] = (func, list(options))
        return func

    return register


def _integer(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a valid integer") from None


def _int_range(low: int, high: int | None = None) -> Callable[[str], int]:
    """An argument type: an integer of at least ``low`` and, if ``high`` is given, at most ``high``."""
    bounds = f"x>={low}" if high is None else f"{low}<=x<={high}"

    def in_range(value: str) -> int:
        n = _integer(value)
        if n < low or (high is not None and n > high):
            raise argparse.ArgumentTypeError(f"{n} is not in the range {bounds}")
        return n

    return in_range


def _is_dir(what: str, value: str) -> bool | None:
    """Whether the path ``value`` is a directory; None if nothing is there, or a file is on the way.

    ``""`` is ``"."``. Any other failure, such as a name too long, is a usage error naming ``what``
    and the path.
    """
    try:
        return S_ISDIR(Path(value).stat().st_mode)
    except (FileNotFoundError, NotADirectoryError):
        return None
    except OSError as e:
        raise argparse.ArgumentTypeError(f"{what} {value!r}: {e.strerror}") from None


def _file_path(value: str) -> str:
    """An argument type: a path that is not a directory, in a directory that exists."""
    if _is_dir("file", value):
        raise argparse.ArgumentTypeError(f"file {value!r} is a directory")
    if not _is_dir("file", str(Path(value).parent)):
        raise argparse.ArgumentTypeError(f"file {value!r} is not in an existing directory")
    return value


def _existing_file(value: str) -> str:
    """An argument type: a file that exists and can be read."""
    is_dir = _is_dir("file", value)
    if is_dir is None:
        raise argparse.ArgumentTypeError(f"file {value!r} does not exist")
    if is_dir:
        raise argparse.ArgumentTypeError(f"file {value!r} is a directory")
    if not os.access(value, os.R_OK):
        raise argparse.ArgumentTypeError(f"file {value!r} is not readable")
    return value


def _dir_path(value: str) -> str:
    """An argument type: a path that is neither a file nor a directory holding anything."""
    is_dir = _is_dir("directory", value)
    if is_dir is False:
        raise argparse.ArgumentTypeError(f"directory {value!r} is a file")
    try:
        if is_dir and any(Path(value).iterdir()):
            raise argparse.ArgumentTypeError(f"directory {value!r} is not empty")
    except OSError as e:  # it cannot be listed
        raise argparse.ArgumentTypeError(f"directory {value!r}: {e.strerror}") from None
    if not Path(value).name:  # "." or "/": no sibling to build it in
        raise argparse.ArgumentTypeError(f"directory {value!r} has no name")
    return value


def _direction(name: str) -> Direction:
    """An argument type: the Direction named ``name``, converted once."""
    try:
        return Direction.of(name)
    except ConfigError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _ratios(value: str) -> tuple[float, ...]:
    from . import corpus as corpus_mod
    try:
        ratios = tuple(float(x) for x in value.split(","))
        corpus_mod.check_ratios(ratios)
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"{value!r}: {e}") from None
    return ratios


def _fold_count(value: str) -> int:
    n = _integer(value)
    if n == 1 or n < 0:
        raise argparse.ArgumentTypeError(f"{n} is neither 0 (holdout) nor at least 2")
    return n


_CORPUS = _opt("--corpus", type=_existing_file, required=True)
_DIRECTION = _opt("--direction", type=_direction, required=True,
                  metavar="{" + ",".join(DIRECTIONS) + "}")
_SEED = _opt("--seed", type=int, default=0)
_BEAM = _opt("--beam", type=_int_range(1), default=DEFAULT_BEAM, help="Beam width, at least 1.")
# Each order pads every text with that many begin sentinels, so a model grows with the square of its order.
_LM_ORDER = _opt("--lm-order", type=_int_range(1, 10), default=DEFAULT_LM_ORDER,
                 help="Character n-gram order, 1 to 10.")
_FORMAT = _opt("--format", dest="format_", choices=["table", "jsonl"], default="table")
_INPUT = _opt("-i", "--input", dest="input_", metavar="INPUT", default="-", help="Input file, - for stdin.")
_OUTPUT = _opt("-o", "--output", type=_file_path, default="-", help="Output file, - for stdout.")
_OUT_DIR = _opt("--out", type=_dir_path, required=True)
_OUT_FILE = _opt("--out", type=_file_path, required=True)


@contextmanager
def _stage(name: str):
    """Prefix any toolkit error with ``name``: the failing pipeline stage, or the input file."""
    try:
        yield
    except TgfaError as e:
        e.args = (f"{name}: {e}",)
        raise


@contextmanager
def _run_directory(out: str):
    """Yield a fresh sibling of ``out`` to write a run's files in; rename it onto ``out`` at the end.

    The sibling is ``.tgfa.<pid>.dir`` or, where one by that name is left
    (an earlier process with this pid was killed), ``.tgfa.<pid>.<k>.dir``
    for the least free k below 10; one that exists is never touched. On
    any exception, KeyboardInterrupt included, the sibling is removed and
    ``out``, absent or empty, is left as it was; so is each missing
    parent of ``out`` that this call made, removed deepest first while
    it is empty. An ``out`` with a ``..`` part is built under its parent's
    real path, so that ``missing/../kept/run`` neither makes ``missing``
    nor counts ``kept`` as made.
    """
    path = Path(out)
    if ".." in path.parts:
        path = Path(os.path.realpath(path.parent), path.name)
    made = list(takewhile(lambda parent: not parent.exists(), path.parents))  # deepest first
    try:
        for k in range(10):
            work = temporary_sibling(path, f"{k}.dir" if k else "dir")
            try:
                work.mkdir(parents=True)
                break
            except FileExistsError:
                if k == 9:
                    raise
        try:
            yield work
            os.replace(work, path)
        except BaseException:
            shutil.rmtree(work, ignore_errors=True)
            raise
    except BaseException:
        for parent in made:
            try:
                parent.rmdir()
            except OSError:  # not empty: in use elsewhere, and so are those above it
                break
        raise


def _write_lines(path: str | Path, lines: Iterable[str]) -> None:
    write_utf8(path, ["".join(line + "\n" for line in lines)])


def _write_json(path: Path, value) -> None:
    write_utf8(path, [json.dumps(value, sort_keys=True, ensure_ascii=False) + "\n"])


def _sha256(path: str | Path) -> str:
    """The hex SHA-256 of the file at ``path``, read in 1 MiB chunks.

    Equal to ``hashlib.sha256(data).hexdigest()``, from the built-in module.
    """
    h = sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_hash(config: dict) -> str:
    """The hex SHA-256 of ``config`` as sorted-key JSON, encoded as UTF-8."""
    blob = json.dumps(config, sort_keys=True, ensure_ascii=False)
    return sha256(blob.encode("utf-8")).hexdigest()


def _meta(config: dict, inputs: Sequence[str | Path], seed: int | None) -> dict:
    return {
        "tool": "tgfa",
        "version": __version__,
        "seed": seed,
        "config_hash": _config_hash(config),
        "inputs": {str(p): _sha256(p) for p in inputs},
    }


def _meta_lines(meta: dict) -> list[str]:
    lines = [f"# tgfa {meta['version']}  seed={meta['seed']}  config={meta['config_hash'][:16]}"]
    for path, digest in meta["inputs"].items():
        lines.append(f"# input {path} sha256={digest[:16]}")
    return lines


def _score_systems(pairs: Sequence[ParallelPair], hyps_by_system: dict[str, Sequence[str]], target: Script,
                   sentence_chrf: bool = False) -> dict[str, ScoreRows]:
    """Each system's score rows: its hypotheses, one per pair, against the pairs' raw ``target`` sides.

    Both sides are eval-normalized, and each pair is grouped by ``corpus.group_of``.
    """
    from .corpus import group_of
    from .metrics import EvalPair, score_corpus
    groups = [group_of(p) for p in pairs]
    refs = [normalize_text(p.text(target, train=False), target, NormMode.EVAL) for p in pairs]
    systems = {}
    for name, hyps in hyps_by_system.items():
        eval_pairs = [EvalPair(hypothesis=normalize_text(hyp, target, NormMode.EVAL), reference=ref, group=group)
                      for hyp, ref, group in zip(hyps, refs, groups)]
        systems[name] = [{"system": name, **row} for row in score_corpus(eval_pairs, sentence_chrf)]
    return systems


def _report_table(systems: dict[str, ScoreRows], metas: Sequence[dict]) -> str:
    """Aligned text table: rows = groups + Overall, columns = metrics x systems.

    The header lines of each distinct meta come first, in order. Groups
    come in the order the systems first give them, Overall last; a
    system without a group shows ``-``. With several systems the best
    value per group and metric is marked with a trailing ``*``.
    """
    multi = len(systems) > 1
    by_group: dict[str, dict[str, dict]] = {}  # group -> system -> row
    for name, rows in systems.items():
        for row in rows:
            by_group.setdefault(row["group"], {})[name] = row
    by_group["Overall"] = by_group.pop("Overall")

    header = ["Group", "N"] + [METRIC_LABELS[m] + (f"[{name}]" if multi else "")
                               for m in METRIC_COLUMNS for name in systems]
    table = [header]
    for group, rows in by_group.items():
        cells = [group, str(next(iter(rows.values()))["n_pairs"])]
        for metric in METRIC_COLUMNS:
            values = [row[metric] for row in rows.values()]
            best = min(values) if metric in LOWER_IS_BETTER else max(values)
            for name in systems:
                row = rows.get(name)
                if row is None:
                    cells.append("-")
                else:
                    cells.append(f"{row[metric]:.2f}" + ("*" if multi and row[metric] == best else ""))
        table.append(cells)

    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    out = [line for i, meta in enumerate(metas) if meta not in metas[:i] for line in _meta_lines(meta)]
    for row in table:
        out.append("  ".join(c.ljust(widths[i]) if i == 0 else c.rjust(widths[i]) for i, c in enumerate(row)))
    return "\n".join(out) + "\n"


def _report_jsonl(rows: ScoreRows, meta: dict) -> str:
    """A score file: the meta line, then one line per row."""
    return "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in [{"meta": meta}, *rows])


@_command(
    "normalize",
    _opt("--script", choices=["farsi", "tajik"], required=True),
    _opt("--mode", choices=["train", "eval"], default="train"),
    _opt("--char-table", type=_existing_file, help="TSV with classification overrides (codepoint<TAB>class)."),
    _INPUT, _OUTPUT,
)
def normalize_cmd(script, mode, char_table, input_, output):
    """Normalize raw text, one line at a time."""
    table = load_char_table(char_table) if char_table else None
    _write_lines(output, [normalize_text(line, Script(script), mode, table) for line in read_lines(input_)])


@_command("tokenize", _INPUT, _OUTPUT)
def tokenize_cmd(input_, output):
    """Insert contextual markers into normalized text."""
    from .tokenizer import format_token_line, tokenize
    lines = []
    for lineno, line in enumerate(read_lines(input_), start=1):
        try:
            lines.append(format_token_line(tokenize(line)))
        except MarkerCollision as e:
            raise MarkerCollision(str(e), line=lineno, path="<stdin>" if input_ == "-" else input_) from None
    _write_lines(output, lines)


@_command("detokenize", _INPUT, _OUTPUT)
def detokenize_cmd(input_, output):
    """Strip contextual markers from token lines."""
    from .tokenizer import detokenize, parse_token_line
    _write_lines(output, (detokenize(parse_token_line(line)) for line in read_lines(input_)))


@_command("stats", _CORPUS, _opt("--per", choices=["dataset", "domain"], default="dataset"), _FORMAT, _OUTPUT)
def stats(corpus, per, format_, output):
    """Pair counts and average token/character lengths."""
    from . import corpus as corpus_mod
    pairs = corpus_mod.load(corpus)
    with _stage(corpus):
        rows = corpus_mod.stats(pairs, per=per)
    if format_ == "jsonl":
        lines = [json.dumps(row, sort_keys=True, ensure_ascii=False) for row in rows]
    else:
        lines = [f"{'Label':<20}  {'Pairs':>8}  {'FaTok':>7}  {'FaChr':>8}  {'TgTok':>7}  {'TgChr':>8}"]
        lines += [f"{r['label']:<20}  {r['n_pairs']:>8}  {r['fa_avg_tokens']:>7.2f}  {r['fa_avg_chars']:>8.2f}  "
                  f"{r['tg_avg_tokens']:>7.2f}  {r['tg_avg_chars']:>8.2f}" for r in rows]
    _write_lines(output, lines)


@_command(
    "split", _CORPUS, _SEED,
    _opt("--ratios", type=_ratios, default="0.8,0.1,0.1",
         help="Train, dev and test shares: three non-negative values summing to 1."),
    _OUT_DIR,
)
def split(corpus, seed, ratios, out):
    """Stratified train/dev/test holdout split; writes the three subsets."""
    from . import corpus as corpus_mod
    pairs = corpus_mod.load(corpus)
    with _stage(corpus):
        spec = corpus_mod.split_holdout(pairs, ratios, seed)
    payload = {"seed": seed, "ratios": list(ratios), "train": list(spec.train), "dev": list(spec.dev),
               "test": list(spec.test)}
    with _run_directory(out) as out_dir:
        _write_json(out_dir / "split.json", payload)
        for name, indices in (("train", spec.train), ("dev", spec.dev), ("test", spec.test)):
            corpus_mod.save([pairs[i] for i in indices], out_dir / f"{name}.jsonl")
    print(f"split {len(pairs)} pairs -> train={len(spec.train)} dev={len(spec.dev)} test={len(spec.test)}")


@_command("kfold", _CORPUS, _opt("--k", type=_int_range(2), default=10, help="Number of folds, at least 2."),
          _SEED, _OUT_DIR)
def kfold(corpus, k, seed, out):
    """Stratified k-fold cross-validation index sets."""
    from . import corpus as corpus_mod
    pairs = corpus_mod.load(corpus)
    with _stage(corpus):
        folds = corpus_mod.kfold(pairs, k=k, seed=seed)
    payload = [{"fold": i, "train": list(f.train), "test": list(f.test)} for i, f in enumerate(folds)]
    with _run_directory(out) as out_dir:
        _write_json(out_dir / "folds.json", {"seed": seed, "k": k, "folds": payload})
    print(f"wrote {k} folds over {len(pairs)} pairs")


@_command(
    "filter-names", _CORPUS,
    _opt("--map", dest="map_path", metavar="MAP", type=_existing_file,
         help="Consonant map TSV; defaults to the built-in table."),
    _opt("--count-based", action="store_true", help="Compare consonant counts only, ignoring their order."),
    _OUT_DIR,
)
def filter_names(corpus, map_path, count_based, out):
    """Keep pairs whose unambiguous consonants correspond one-to-one."""
    from . import corpus as corpus_mod
    pairs = corpus_mod.load(corpus)
    cmap = corpus_mod.load_consonant_map(map_path) if map_path else None
    kept, rejected = corpus_mod.paranames_filter(pairs, cmap, order_sensitive=not count_based)
    rows = ({"fa": pair.fa, "tg": pair.tg, "dataset": pair.dataset, "violating_class": cls} for pair, cls in rejected)
    with _run_directory(out) as out_dir:
        corpus_mod.save(kept, out_dir / "kept.jsonl")
        _write_lines(out_dir / "rejected.jsonl", (json.dumps(row, sort_keys=True, ensure_ascii=False) for row in rows))
    print(f"kept {len(kept)}, rejected {len(rejected)} of {len(pairs)} pairs")


@_command("build-dict", _CORPUS, _DIRECTION, _OUT_FILE)
def build_dict(corpus, direction, out):
    """Build the word-level lookup from positionally aligned pairs."""
    from . import corpus as corpus_mod
    from . import translit as translit_mod
    pairs = corpus_mod.load(corpus)
    d = translit_mod.build_dictionary(pairs, direction)
    translit_mod.save_dictionary(d, out)
    print(f"{len(d.entries)} entries ({d.skipped_pairs} pairs skipped)")


@_command("train-lm", _CORPUS, _DIRECTION, _LM_ORDER,
          _opt("--smoothing", choices=SMOOTHINGS, default="witten_bell"), _OUT_FILE)
def train_lm_cmd(corpus, direction, lm_order, smoothing, out):
    """Train the character n-gram model on the target side of a corpus."""
    from . import corpus as corpus_mod
    from . import translit as translit_mod
    pairs = corpus_mod.load(corpus)
    with _stage(corpus):
        lm = translit_mod.train_lm([p.text(direction.target) for p in pairs], order=lm_order, smoothing=smoothing)
    translit_mod.save_lm(lm, out)
    print(f"order-{lm_order} model over {len(lm.vocab)} symbols")


@_command(
    "translit", _DIRECTION,
    _opt("--table", dest="table_path", metavar="TABLE", type=_existing_file,
         help="Mapping table TSV; defaults to the built-in table."),
    _opt("--dict", dest="dict_path", metavar="DICT", type=_existing_file),
    _opt("--lm", dest="lm_path", metavar="LM", type=_existing_file,
         help="Without an LM the first table candidate is taken."),
    _BEAM,
    _opt("--assume-normalized", action="store_true",
         help="Input is already train-normalized; skip normalization."),
    _opt("--ambiguity-stats", action="store_true", help="Print the mean lattice path count per token to stderr."),
    _INPUT, _OUTPUT,
)
def translit_cmd(direction, table_path, dict_path, lm_path, beam, assume_normalized,
                 ambiguity_stats, input_, output):
    """Transliterate text line by line with the lattice baseline."""
    from . import translit as translit_mod
    if table_path:
        table = translit_mod.load_mapping_table(table_path, direction)
    else:
        table = translit_mod.default_mapping_table(direction.name)
    dictionary = translit_mod.load_dictionary(dict_path) if dict_path else None
    if dictionary is not None and dictionary.direction != direction:
        raise ConfigError(
            f"dictionary direction is {dictionary.direction.name}, but --direction is {direction.name}",
            path=dict_path,
        )
    lm = translit_mod.load_lm(lm_path) if lm_path else None
    letters = FARSI_LETTERS if direction.target is Script.FARSI else TAJIK_LETTERS
    if lm is not None and lm.vocab.isdisjoint(letters):
        # A model trained for the other direction; one holding stray letters still loads.
        script = direction.target.value.capitalize()
        raise ConfigError(
            f"model alphabet holds no {script} letter, but --direction {direction.name} writes {script}",
            path=lm_path,
        )
    normalized = list(read_lines(input_))
    if not assume_normalized:
        normalized = [normalize_text(line, direction.source, NormMode.TRAIN) for line in normalized]
    where = "<stdin>" if input_ == "-" else input_
    out_lines = translit_mod.transliterate_lines(normalized, table, dictionary, lm, beam, where=where)
    if ambiguity_stats:
        with _stage(where):
            mean = translit_mod.avg_alternatives(normalized, table)
        print(f"avg alternatives per token: {mean:.2f}", file=sys.stderr)
    _write_lines(output, out_lines)


def _claim_system(sources: dict[str, str], name: str, path: str) -> None:
    """Record that ``path`` holds system ``name``; a name that two files give raises ConfigError."""
    if name in sources:
        raise ConfigError(f"system name {name!r} is given by both {sources[name]} and {path}")
    sources[name] = path


def _load_hyp_lines(hyp_path: str, n_expected: int) -> list[str]:
    lines = list(read_lines(hyp_path))
    if len(lines) != n_expected:
        beyond = min(len(lines), n_expected) + 1
        raise LengthMismatch(
            f"{hyp_path}: {len(lines)} hypothesis lines for {n_expected} reference "
            f"pairs (first offending line: {beyond})"
        )
    return lines


@_command(
    "score",
    _opt("--corpus", type=_existing_file, required=True, help="Reference corpus (JSONL or TSV)."),
    _opt("--hyp", dest="hyps", metavar="HYP", type=_existing_file, action="append", required=True,
         help="Hypothesis file, one detokenized line per pair; repeatable."),
    _DIRECTION,
    _opt("--sentence-chrf", action="store_true", help="Average sentence-level chrF instead of pooling counts."),
    _FORMAT,
    _opt("--out", type=_dir_path),
)
def score(corpus, hyps, direction, sentence_chrf, format_, out):
    """Score hypothesis files against a reference corpus."""
    from . import corpus as corpus_mod
    sources: dict[str, str] = {}
    for hyp_path in hyps:
        _claim_system(sources, Path(hyp_path).stem, hyp_path)
    pairs = corpus_mod.load(corpus)
    config = {"command": "score", "direction": direction.name, "corpus": str(corpus),
              "hyp": [str(h) for h in hyps], "sentence_chrf": sentence_chrf}
    meta = _meta(config, [corpus, *hyps], seed=None)
    hyps_by_system = {name: _load_hyp_lines(hyp_path, len(pairs)) for name, hyp_path in sources.items()}
    with _stage(corpus):
        systems = _score_systems(pairs, hyps_by_system, direction.target, sentence_chrf)
    table_text = _report_table(systems, [meta])
    if format_ == "table":
        sys.stdout.write(table_text)
    else:
        for rows in systems.values():
            sys.stdout.write(_report_jsonl(rows, meta))
    if out:
        with _run_directory(out) as out_dir:
            write_utf8(out_dir / "report.txt", [table_text])
            for name, rows in systems.items():
                write_utf8(out_dir / f"{name}.scores.jsonl", [_report_jsonl(rows, meta)])


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _run_blocks(run_block: Callable[[int], None], outputs: Sequence[Path]) -> None:
    """Run ``run_block(i)`` for each block i, whose last file is ``outputs[i]``: a parallel pass, then a serial one.

    The parallel pass deals the blocks round robin over W = min(blocks,
    usable CPUs) processes: W - 1 forked workers, and this process, which
    runs share 0 itself. Without ``os.fork``, or with one block or one
    CPU, W is 1 and there is no parallel pass. (The command starts no
    thread, so forking is safe; a spawned worker would pay the
    interpreter's start-up again.) A fork that the system refuses ends
    the forking, and the shares left unforked go to the serial pass. A
    process leaves its share at its first failing block; a worker writes
    nothing to stdout or stderr and leaves through ``os._exit(0)``, so a
    worker that ends with another status died, a TgfaError. On any way
    out, interrupts included, each worker still running is killed and
    every worker is reaped, so none writes into a run directory being
    removed.

    The serial pass then runs here, in block order, each block whose
    last file does not exist: so the lowest-numbered failing block raises
    its own error, as it would in a run without workers.
    """
    n_blocks = len(outputs)
    workers = min(n_blocks, _usable_cpus()) if hasattr(os, "fork") else 1
    if workers > 1:
        running: list[int] = []
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            for w in range(1, workers):
                try:
                    pid = os.fork()
                except OSError:  # refused (EAGAIN, ENOMEM): the serial pass runs the shares left unforked
                    break
                if pid == 0:
                    try:
                        for i in range(w, n_blocks, workers):
                            run_block(i)
                    finally:  # whatever a block raised: the serial pass runs it again
                        os._exit(0)
                running.append(pid)
            try:
                for i in range(0, n_blocks, workers):
                    run_block(i)
            except Exception:  # left undone for the serial pass; an interrupt propagates at once
                pass
            while running:
                _, status = os.waitpid(running[0], 0)
                pid = running.pop(0)
                if status:
                    raise TgfaError(f"worker process {pid} ended with status {os.waitstatus_to_exitcode(status)} "
                                    "before it finished its share")
        finally:
            for pid in running:
                from signal import SIGKILL

                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
    for i, output in enumerate(outputs):
        if not output.exists():
            run_block(i)


@_command(
    "pipeline", _CORPUS, _DIRECTION, _SEED, _BEAM, _LM_ORDER,
    _opt("--folds", type=_fold_count, default=0, help="0 = 80/10/10 holdout; k >= 2 = k-fold cross-validation."),
    _OUT_DIR,
)
def pipeline(corpus, direction, seed, beam, lm_order, folds, out):
    """Run split, training, transliteration and scoring in one go.

    The split comes first, so a corpus too small for it, or a holdout
    split with no test pair, leaves no run directory; nor does a later
    stage that fails, as ``_run_directory`` builds it aside. The
    dictionary and the LM are built once on the whole corpus, and
    ``translit.decode_block`` derives and decodes each block, the
    holdout's or a fold's; this command only writes the block's files.
    The blocks run through ``_run_blocks``, one process per usable CPU,
    and the hypotheses are read back from the blocks' ``test.hyp.txt``,
    so no output depends on how many processes ran.
    """
    from . import corpus as corpus_mod
    from . import translit as translit_mod
    with _stage("load"):
        pairs = corpus_mod.load(corpus)
    with _stage(corpus):
        for p in pairs:
            corpus_mod.group_of(p)  # refuses a group label that merges two groups, or "Overall", before any work
    table = translit_mod.default_mapping_table(direction.name)
    with _stage("split"), _stage(corpus):
        if folds == 0:
            specs = [corpus_mod.split_holdout(pairs, seed=seed)]
            if not specs[0].test:
                raise TooSmall(f"the 80/10/10 split of {len(pairs)} pairs leaves no test pair")
        else:
            specs = corpus_mod.kfold(pairs, k=folds, seed=seed)
    config = {"command": "pipeline", "direction": direction.name, "corpus": str(corpus), "seed": seed,
              "beam": beam, "lm_order": lm_order, "folds": folds}
    meta = _meta(config, [corpus], seed=seed)
    blocks = [""] if folds == 0 else [f"fold{i:02d}" for i in range(folds)]  # directories in the run
    whole_dict = translit_mod.build_dictionary(pairs, direction)
    whole_lm = translit_mod.train_lm([p.text(direction.target) for p in pairs], order=lm_order)

    with _run_directory(out) as work:
        def run_block(i: int) -> None:
            """Write block i's six files, ``test.hyp.txt`` last and whole: the block is done.

            Its models and LM memo are freed when it returns, before the next block's are derived.
            """
            name, spec = blocks[i], specs[i]
            with _stage("translit"):  # the sources are named as in the finished run
                dictionary, lm, sources, hyps = translit_mod.decode_block(
                    pairs, spec, whole_dict, whole_lm, table, beam, where=str(Path(out, name, "test.src.txt")))
            block_dir = work / name
            block_dir.mkdir(exist_ok=True)
            corpus_mod.save([pairs[j] for j in spec.train], block_dir / "train.jsonl")
            corpus_mod.save([pairs[j] for j in spec.test], block_dir / "test.jsonl")
            translit_mod.save_dictionary(dictionary, block_dir / "dict.json")
            translit_mod.save_lm(lm, block_dir / "lm.json")
            _write_lines(block_dir / "test.src.txt", sources)
            _write_lines(block_dir / "test.hyp.txt", hyps)

        _write_json(work / "config.json", {"config": config, "meta": meta})
        if folds == 0:
            _write_json(work / "split.json", {"seed": seed, **specs[0]._asdict()})
            corpus_mod.save([pairs[i] for i in specs[0].dev], work / "dev.jsonl")
        hyp_files = [work / name / "test.hyp.txt" for name in blocks]
        _run_blocks(run_block, hyp_files)
        scored_hyps = [line for path in hyp_files for line in read_lines(path)]  # exact: no hypothesis holds a CR or LF
        scored = [pairs[i] for spec in specs for i in spec.test]
        _write_lines(work / "test.ref.txt", (p.text(direction.target, train=False) for p in scored))
        system = f"baseline-{direction.name}"
        systems = _score_systems(scored, {system: scored_hyps}, direction.target)
        table_text = _report_table(systems, [meta])
        write_utf8(work / "report.txt", [table_text])
        write_utf8(work / "report.jsonl", [_report_jsonl(systems[system], meta)])
    sys.stdout.write(table_text)


def _number_upto(high: float) -> Callable[[object], bool]:
    return lambda v: type(v) in (int, float) and math.isfinite(v) and 0 <= v <= high


# The fields report checks, as (name, check, what it must be): those of a
# score file's meta object, which report prints (see _meta_lines), and
# those of its rows. CER and NCER are error rates, unbounded above; the
# other metrics are percentages.
_META_FIELDS = (
    ("version", lambda v: type(v) is str, "a string"),
    ("seed", lambda v: v is None or type(v) is int, "an integer or null"),
    ("config_hash", lambda v: type(v) is str, "a string"),
    (
        "inputs",
        lambda v: type(v) is dict and all(type(d) is str for d in v.values()),
        "an object of string to string",
    ),
)
_ROW_FIELDS = (
    ("system", lambda v: type(v) is str, "a string"),
    ("group", lambda v: type(v) is str, "a string"),
    ("n_pairs", lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    *((m, _number_upto(math.inf), "a finite number >= 0") if m in ("cer", "ncer")
      else (m, _number_upto(100), "a number in [0, 100]") for m in METRIC_COLUMNS),
)


def _check_fields(obj: dict, fields: tuple, prefix: str, path: str, lineno: int) -> None:
    """ParseError naming ``path``, ``lineno`` and the field ``prefix + name`` of the first field missing or bad."""
    for key, ok, what in fields:
        if key not in obj:
            raise ParseError(f"missing field '{prefix}{key}'", line=lineno, path=path)
        if not ok(obj[key]):
            raise ParseError(f"field '{prefix}{key}' is not {what}", line=lineno, path=path)


@_command(
    "report",
    _opt("--scores", type=_existing_file, action="append", required=True,
         help="Structured score file produced by `score` or `pipeline`; repeatable."),
    _OUTPUT,
)
def report(scores, output):
    """Render one or more structured score files as a side-by-side table."""
    systems: dict[str, ScoreRows] = {}
    sources: dict[str, str] = {}
    metas = []
    for path in scores:
        name = None
        rows: dict[str, dict] = {}  # group -> row
        for lineno, line in enumerate(read_lines(path), start=1):
            if not line.strip():
                continue
            r = parse_json_object(line, path, lineno)
            if "meta" in r:
                if not isinstance(r["meta"], dict):
                    raise ParseError("field 'meta' is not an object", line=lineno, path=path)
                _check_fields(r["meta"], _META_FIELDS, "meta.", path, lineno)
                metas.append(r["meta"])
                continue
            # A row that names no system is of the system named before it, else of the file's stem.
            r.setdefault("system", Path(path).stem.removesuffix(".scores") if name is None else name)
            _check_fields(r, _ROW_FIELDS, "", path, lineno)
            if name is not None and r["system"] != name:
                raise ParseError(f"rows name two systems, {name!r} and {r['system']!r}", line=lineno, path=path)
            if r["group"] in rows:
                raise ParseError(f"a second row for group {r['group']!r}", line=lineno, path=path)
            name = r["system"]
            rows[r["group"]] = r
        if "Overall" not in rows:
            raise ParseError("no Overall row found", path=path)
        _claim_system(sources, name, path)
        systems[name] = list(rows.values())
    write_utf8(output, [_report_table(systems, metas)])


def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser of the whole command line, and each command's own parser."""
    parser = argparse.ArgumentParser(
        prog="tgfa", description="Tajik-Cyrillic / Perso-Arabic transliteration toolkit.", allow_abbrev=False
    )
    parser.add_argument("--version", action="version", version=f"tgfa, version {__version__}")
    group = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)
    commands = {}
    for name, (func, options) in COMMANDS.items():
        doc = func.__doc__
        sub = commands[name] = group.add_parser(name, help=doc.partition("\n")[0], description=doc,
                                                allow_abbrev=False)
        for flags, kwargs in options:
            if kwargs.get("default") is not None:
                kwargs = {**kwargs, "help": f"{kwargs.get('help', '')} (default: %(default)s)".lstrip()}
            sub.add_argument(*flags, **kwargs)
    return parser, commands


def env_var(command: str, long_flag: str) -> str:
    """The environment variable that sets ``command``'s option ``long_flag``: TGFA_<COMMAND>_<FLAG>."""
    return f"TGFA_{command}_{long_flag[2:]}".upper().replace("-", "_")


def _env_args(command: str, parser: argparse.ArgumentParser, argv: Sequence[str]) -> list[str]:
    """The arguments that set variables give ``command``, to be placed before its own ``argv``.

    An empty variable is unset, and so is the variable of a flag that
    ``argv`` gives. A repeatable option's variable is split on whitespace.
    A store_true flag's variable is a boolean word; any other is a usage
    error.
    """
    given = {arg.split("=", 1)[0] for arg in argv}
    args = []
    for flags, kwargs in COMMANDS[command][1]:
        long = flags[-1]
        value = os.environ.get(env_var(command, long))
        if not value or given.intersection(flags):
            continue
        action = kwargs.get("action")
        if action == "store_true":
            word = value.strip().lower()
            if word in ("1", "true", "t", "yes", "y", "on"):
                args.append(long)
            elif word not in ("0", "false", "f", "no", "n", "off"):
                parser.error(f"argument {'/'.join(flags)}: {value!r} is not a valid boolean")
        elif action == "append":
            args += [f"{long}={v}" for v in value.split()]
        else:
            args.append(f"{long}={value}")
    return args


def _unknown_args(parser: argparse.ArgumentParser, argv: Sequence[str]) -> list[str]:
    """The arguments in ``argv`` that ``parser`` does not know; [] if another usage error comes first.

    argparse checks required options before it lists unknown arguments, so
    ``tgfa report --out x`` would name the missing --scores, not --out. This
    parse requires no option and prints nothing: any other error is left to
    the full parse, which reports it as before.
    """
    required = [action for action in parser._actions if action.required]
    for action in required:
        action.required = False
    parser.exit_on_error = False
    try:
        return parser.parse_known_args(argv)[1]
    except argparse.ArgumentError:
        return []
    finally:
        parser.exit_on_error = True
        for action in required:
            action.required = True


def main(argv: Sequence[str] | None = None) -> NoReturn:
    """Run one command line; always ends in SystemExit.

    The code is 0 on success, 2 for a usage error and a TgfaError's own
    code (2, 3 or 4) after printing ``Error: <message>`` to stderr. A
    file that cannot be written or made is ``Error: <file>: <reason>``,
    code 2.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, commands = _parser()
    # The group's own flags take no value, so the first word is the command. Help reads no variable.
    at = next((i for i, arg in enumerate(argv) if not arg.startswith("-")), None)
    if at is not None and argv[at] in COMMANDS and not {"-h", "--help"} & set(argv):
        argv[at + 1 : at + 1] = _env_args(argv[at], commands[argv[at]], argv[at + 1 :])
        unknown = _unknown_args(commands[argv[at]], argv[at + 1 :])
        if unknown:
            parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    kwargs = vars(parser.parse_args(argv))
    func, _ = COMMANDS[kwargs.pop("command")]
    try:
        func(**kwargs)
    except TgfaError as e:
        print(f"Error: {e}", file=sys.stderr)
        sys.exit(e.exit_code)
    except BrokenPipeError:
        # The reader closed stdout (`tgfa ... | head`): point it at devnull so the exit flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except OSError as e:
        print(f"Error: {e.filename}: {e.strerror}" if e.filename else f"Error: {e}", file=sys.stderr)
        sys.exit(2)
    sys.exit(0)


if __name__ == "__main__":
    main()
