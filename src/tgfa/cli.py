"""Command-line front end.

Each stage of the experiment pipeline is independently invocable
(normalize, tokenize, split, build-dict, train-lm, translit, score, ...)
and `pipeline` chains them end to end. Commands never mutate their
inputs; artifacts go only under the configured output directory, and
every emitted report embeds the tool version, seed, a config hash and
the input file digests, so a rerun with the same seed and config is
byte-identical.

Every flag can also be set through an environment variable with the
TGFA_ prefix (e.g. TGFA_PIPELINE_SEED for `tgfa pipeline --seed`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import click

from . import __version__
from .errors import ConfigError, LengthMismatch, ParseError, TgfaError, UnknownDataset
from .metrics import EvalPair, GroupScores, MetricReport, score_corpus
from .script import NormMode, Script, load_char_table, normalize_text
from .tokenizer import detokenize, format_token_line, parse_token_line, tokenize
from . import corpus as corpus_mod
from . import translit as translit_mod

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


class _CliError(click.ClickException):
    def __init__(self, err: TgfaError):
        super().__init__(str(err))
        self.exit_code = err.exit_code


def _friendly(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except TgfaError as e:
            raise _CliError(e) from e

    return wrapper


@contextmanager
def _stage(name: str):
    """Attach the failing pipeline stage to any toolkit error."""
    try:
        yield
    except TgfaError as e:
        e.args = (f"{name}: {e}",)
        raise


@click.group(context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="tgfa")
def cli():
    """Tajik-Cyrillic / Perso-Arabic transliteration toolkit."""


def _read_lines(path: str) -> list[str]:
    if path == "-":
        data = sys.stdin.read()
    else:
        data = Path(path).read_text(encoding="utf-8")
    lines = data.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _write_lines(path: str, lines: Iterable[str]) -> None:
    text = "".join(line + "\n" for line in lines)
    if path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _sha256(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _meta(config: dict, inputs: Sequence[str | Path], seed: int | None) -> dict:
    return {
        "tool": "tgfa",
        "version": __version__,
        "seed": seed,
        "config_hash": _config_hash(config),
        "inputs": {str(p): _sha256(p) for p in inputs},
    }


def _meta_lines(meta: dict) -> list[str]:
    lines = [
        f"# tgfa {meta['version']}  seed={meta['seed']}  config={meta['config_hash'][:16]}"
    ]
    for path, digest in meta["inputs"].items():
        lines.append(f"# input {path} sha256={digest[:16]}")
    return lines


def _group_label(pair: corpus_mod.ParallelPair) -> str:
    try:
        return corpus_mod.domain_of(pair)
    except UnknownDataset:
        return pair.dataset or "all"


def _eval_texts(texts: Iterable[str], target: Script) -> list[str]:
    return [normalize_text(text, target, NormMode.EVAL) for text in texts]


def _eval_pairs(
    refs: Sequence[str],
    hyps_raw: Sequence[str],
    groups: Sequence[str],
    target: Script,
) -> list[EvalPair]:
    """Pair eval-normalized references with hypotheses, normalizing the latter."""
    return [
        EvalPair(hypothesis=hyp, reference=ref, group=group)
        for ref, hyp, group in zip(refs, _eval_texts(hyps_raw, target), groups)
    ]


def _fmt_cell(value: float) -> str:
    return f"{value:.2f}"


def _report_table(systems: dict[str, MetricReport], meta: dict | None = None) -> str:
    """Aligned text table: rows = groups + Overall, columns = metrics x systems.

    With several systems the best value per group and metric is marked
    with a trailing ``*``.
    """
    names = list(systems)
    multi = len(names) > 1
    group_labels: list[str] = []
    for rep in systems.values():
        for g in rep.groups:
            if g not in group_labels:
                group_labels.append(g)
    group_labels.append("Overall")

    def scores_of(name: str, group: str) -> GroupScores | None:
        rep = systems[name]
        return rep.overall if group == "Overall" else rep.groups.get(group)

    columns = []
    for metric in METRIC_COLUMNS:
        for name in names:
            label = METRIC_LABELS[metric] + (f"[{name}]" if multi else "")
            columns.append((metric, name, label))

    rows = []
    for group in group_labels:
        n_pairs = next(
            s.n_pairs for s in (scores_of(n, group) for n in names) if s is not None
        )
        row = [group, str(n_pairs)]
        for metric, name, _ in columns:
            scores = scores_of(name, group)
            if scores is None:
                row.append("-")
                continue
            value = getattr(scores, metric)
            cell = _fmt_cell(value)
            if multi:
                values = [
                    getattr(s, metric)
                    for s in (scores_of(n, group) for n in names)
                    if s is not None
                ]
                best = min(values) if metric in LOWER_IS_BETTER else max(values)
                if value == best:
                    cell += "*"
            row.append(cell)
        rows.append(row)

    header = ["Group", "N"] + [label for _, _, label in columns]
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) for i in range(len(header))
    ]
    out = []
    if meta is not None:
        out.extend(_meta_lines(meta))
    out.append(
        "  ".join(
            h.ljust(widths[i]) if i == 0 else h.rjust(widths[i])
            for i, h in enumerate(header)
        )
    )
    for row in rows:
        out.append(
            "  ".join(
                c.ljust(widths[i]) if i == 0 else c.rjust(widths[i])
                for i, c in enumerate(row)
            )
        )
    return "\n".join(out) + "\n"


def _report_jsonl(name: str, report: MetricReport, meta: dict) -> str:
    lines = [json.dumps({"meta": meta}, sort_keys=True, ensure_ascii=False)]
    for group, scores in list(report.groups.items()) + [("Overall", report.overall)]:
        row = {"system": name, "group": group, "n_pairs": scores.n_pairs}
        row.update({m: getattr(scores, m) for m in METRIC_COLUMNS})
        lines.append(json.dumps(row, sort_keys=True, ensure_ascii=False))
    return "\n".join(lines) + "\n"


@cli.command()
@click.option("--script", type=click.Choice(["farsi", "tajik"]), required=True)
@click.option("--mode", type=click.Choice(["train", "eval"]), default="train", show_default=True)
@click.option("--char-table", type=click.Path(exists=True, dir_okay=False), default=None,
              help="TSV with classification overrides (codepoint<TAB>class).")
@click.option("-i", "--input", "input_", default="-", help="Input file, - for stdin.")
@click.option("-o", "--output", default="-", help="Output file, - for stdout.")
@_friendly
def normalize(script, mode, char_table, input_, output):
    """Normalize raw text, one line at a time."""
    table = load_char_table(char_table) if char_table else None
    lines = [
        normalize_text(line, Script(script), mode, table) for line in _read_lines(input_)
    ]
    _write_lines(output, lines)


@cli.command("tokenize")
@click.option("-i", "--input", "input_", default="-")
@click.option("-o", "--output", default="-")
@_friendly
def tokenize_cmd(input_, output):
    """Insert contextual markers into normalized text."""
    _write_lines(output, (format_token_line(tokenize(line)) for line in _read_lines(input_)))


@cli.command("detokenize")
@click.option("-i", "--input", "input_", default="-")
@click.option("-o", "--output", default="-")
@_friendly
def detokenize_cmd(input_, output):
    """Strip contextual markers from token lines."""
    _write_lines(output, (detokenize(parse_token_line(line)) for line in _read_lines(input_)))


@cli.command()
@click.option("--corpus", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--per", type=click.Choice(["dataset", "domain"]), default="dataset", show_default=True)
@click.option("--format", "format_", type=click.Choice(["table", "jsonl"]), default="table", show_default=True)
@click.option("-o", "--output", default="-")
@_friendly
def stats(corpus, per, format_, output):
    """Pair counts and average token/character lengths."""
    pairs = corpus_mod.load(corpus)
    table = corpus_mod.stats(pairs, per=per)
    if format_ == "jsonl":
        lines = [
            json.dumps({"label": label, **vars(s)}, sort_keys=True, ensure_ascii=False)
            for label, s in table.items()
        ]
    else:
        header = f"{'Label':<20}  {'Pairs':>8}  {'FaTok':>7}  {'FaChr':>8}  {'TgTok':>7}  {'TgChr':>8}"
        lines = [header]
        for label, s in table.items():
            lines.append(
                f"{label:<20}  {s.n_pairs:>8}  {s.fa_avg_tokens:>7.2f}  "
                f"{s.fa_avg_chars:>8.2f}  {s.tg_avg_tokens:>7.2f}  {s.tg_avg_chars:>8.2f}"
            )
    _write_lines(output, lines)


@cli.command()
@click.option("--corpus", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--ratios", default="0.8,0.1,0.1", show_default=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
@_friendly
def split(corpus, seed, ratios, out):
    """Stratified train/dev/test holdout split; writes the three subsets."""
    try:
        parts = tuple(float(x) for x in ratios.split(","))
    except ValueError:
        raise click.UsageError(f"bad --ratios value {ratios!r}")
    if len(parts) != 3:
        raise click.UsageError("--ratios needs exactly three comma-separated values")
    pairs = corpus_mod.load(corpus)
    spec = corpus_mod.split_holdout(pairs, parts, seed)  # type: ignore[arg-type]
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "seed": seed,
        "ratios": list(parts),
        "train": list(spec.train),
        "dev": list(spec.dev),
        "test": list(spec.test),
    }
    (out_dir / "split.json").write_text(
        json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8"
    )
    for name, indices in (("train", spec.train), ("dev", spec.dev), ("test", spec.test)):
        corpus_mod.save([pairs[i] for i in indices], out_dir / f"{name}.jsonl")
    click.echo(
        f"split {len(pairs)} pairs -> train={len(spec.train)} dev={len(spec.dev)} test={len(spec.test)}"
    )


@cli.command()
@click.option("--corpus", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--k", type=int, default=10, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", type=click.Path(file_okay=False), required=True)
@_friendly
def kfold(corpus, k, seed, out):
    """Stratified k-fold cross-validation index sets."""
    pairs = corpus_mod.load(corpus)
    folds = corpus_mod.kfold(pairs, k=k, seed=seed)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = [
        {"fold": i, "train": list(f.train), "test": list(f.test)}
        for i, f in enumerate(folds)
    ]
    (out_dir / "folds.json").write_text(
        json.dumps({"seed": seed, "k": k, "folds": payload}, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    click.echo(f"wrote {k} folds over {len(pairs)} pairs")


@cli.command("filter-names")
@click.option("--corpus", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--map", "map_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Consonant map TSV; defaults to the built-in table.")
@click.option("--count-based", is_flag=True,
              help="Compare consonant counts only, ignoring their order.")
@click.option("--out", type=click.Path(file_okay=False), required=True)
@_friendly
def filter_names(corpus, map_path, count_based, out):
    """Keep pairs whose unambiguous consonants correspond one-to-one."""
    pairs = corpus_mod.load(corpus)
    cmap = corpus_mod.load_consonant_map(map_path) if map_path else None
    kept, rejected = corpus_mod.paranames_filter(
        pairs, cmap, order_sensitive=not count_based
    )
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus_mod.save(kept, out_dir / "kept.jsonl")
    with (out_dir / "rejected.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
        for pair, cls in rejected:
            row = {"fa": pair.fa, "tg": pair.tg, "dataset": pair.dataset, "violating_class": cls}
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")
    click.echo(f"kept {len(kept)}, rejected {len(rejected)} of {len(pairs)} pairs")


@cli.command("build-dict")
@click.option("--corpus", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--direction", type=click.Choice(list(translit_mod.DIRECTIONS)), required=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_friendly
def build_dict(corpus, direction, out):
    """Build the word-level lookup from positionally aligned pairs."""
    pairs = corpus_mod.load(corpus)
    d = translit_mod.build_dictionary(pairs, direction)
    translit_mod.save_dictionary(d, out)
    click.echo(f"{len(d.entries)} entries ({d.skipped_pairs} pairs skipped)")


@cli.command("train-lm")
@click.option("--corpus", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--direction", type=click.Choice(list(translit_mod.DIRECTIONS)), required=True)
@click.option("--lm-order", type=click.IntRange(min=1), default=translit_mod.DEFAULT_LM_ORDER,
              show_default=True)
@click.option("--smoothing", type=click.Choice(list(translit_mod.SMOOTHINGS)), default="witten_bell",
              show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), required=True)
@_friendly
def train_lm_cmd(corpus, direction, lm_order, smoothing, out):
    """Train the character n-gram model on the target side of a corpus."""
    pairs = corpus_mod.load(corpus)
    d = translit_mod.DIRECTIONS[direction]
    lm = translit_mod.train_lm([d.target_text(p) for p in pairs], order=lm_order, smoothing=smoothing)
    translit_mod.save_lm(lm, out)
    click.echo(f"order-{lm_order} model over {len(lm.vocab)} symbols")


@cli.command("translit")
@click.option("--direction", type=click.Choice(list(translit_mod.DIRECTIONS)), required=True)
@click.option("--table", "table_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Mapping table TSV; defaults to the built-in table.")
@click.option("--dict", "dict_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--lm", "lm_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Without an LM the first table candidate is taken.")
@click.option("--beam", type=click.IntRange(min=1), default=translit_mod.DEFAULT_BEAM, show_default=True)
@click.option("--assume-normalized", is_flag=True,
              help="Input is already train-normalized; skip normalization.")
@click.option("--ambiguity-stats", is_flag=True,
              help="Print the mean lattice path count per token to stderr.")
@click.option("-i", "--input", "input_", default="-")
@click.option("-o", "--output", default="-")
@_friendly
def translit_cmd(direction, table_path, dict_path, lm_path, beam, assume_normalized,
                 ambiguity_stats, input_, output):
    """Transliterate text line by line with the lattice baseline."""
    table = (
        translit_mod.load_mapping_table(table_path, direction)
        if table_path
        else translit_mod.default_mapping_table(direction)
    )
    dictionary = translit_mod.load_dictionary(dict_path) if dict_path else None
    if dictionary is not None and dictionary.direction != direction:
        raise ConfigError(
            f"dictionary direction is {dictionary.direction}, but --direction is {direction}", path=dict_path
        )
    lm = translit_mod.load_lm(lm_path) if lm_path else None
    normalized = _read_lines(input_)
    if not assume_normalized:
        source = translit_mod.DIRECTIONS[direction].source
        normalized = [normalize_text(line, source, NormMode.TRAIN) for line in normalized]
    out_lines = [
        out.text
        for out in translit_mod.transliterate_lines(
            normalized, dictionary, table, lm, beam, direction=direction
        )
    ]
    _write_lines(output, out_lines)
    if ambiguity_stats:
        mean = translit_mod.avg_alternatives(normalized, table)
        click.echo(f"avg alternatives per token: {mean:.2f}", err=True)


def _load_hyp_lines(hyp_path: str, n_expected: int) -> list[str]:
    lines = _read_lines(hyp_path)
    if len(lines) != n_expected:
        beyond = min(len(lines), n_expected) + 1
        raise LengthMismatch(
            f"{hyp_path}: {len(lines)} hypothesis lines for {n_expected} reference "
            f"pairs (first offending line: {beyond})"
        )
    return lines


@cli.command()
@click.option("--corpus", type=click.Path(exists=True, dir_okay=False), required=True,
              help="Reference corpus (JSONL or TSV).")
@click.option("--hyp", "hyps", type=click.Path(exists=True, dir_okay=False), multiple=True, required=True,
              help="Hypothesis file, one detokenized line per pair; repeatable.")
@click.option("--direction", type=click.Choice(list(translit_mod.DIRECTIONS)), required=True)
@click.option("--sentence-chrf", is_flag=True, help="Average sentence-level chrF instead of pooling counts.")
@click.option("--format", "format_", type=click.Choice(["table", "jsonl"]), default="table", show_default=True)
@click.option("--out", type=click.Path(file_okay=False), default=None)
@_friendly
def score(corpus, hyps, direction, sentence_chrf, format_, out):
    """Score hypothesis files against a reference corpus."""
    pairs = corpus_mod.load(corpus)
    d = translit_mod.DIRECTIONS[direction]
    refs = _eval_texts((d.reference(p) for p in pairs), d.target)
    groups = [_group_label(p) for p in pairs]
    config = {
        "command": "score",
        "direction": direction,
        "corpus": str(corpus),
        "hyp": [str(h) for h in hyps],
        "sentence_chrf": sentence_chrf,
    }
    meta = _meta(config, [corpus, *hyps], seed=None)
    systems: dict[str, MetricReport] = {}
    for hyp_path in hyps:
        hyp_lines = _load_hyp_lines(hyp_path, len(pairs))
        eval_pairs = _eval_pairs(refs, hyp_lines, groups, d.target)
        name = Path(hyp_path).stem
        systems[name] = score_corpus(eval_pairs, sentence_chrf)
    table_text = _report_table(systems, meta)
    if format_ == "table":
        click.echo(table_text, nl=False)
    else:
        for name, report in systems.items():
            click.echo(_report_jsonl(name, report, meta), nl=False)
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(table_text, encoding="utf-8")
        for name, report in systems.items():
            (out_dir / f"{name}.scores.jsonl").write_text(
                _report_jsonl(name, report, meta), encoding="utf-8"
            )


@cli.command()
@click.option("--corpus", type=click.Path(exists=True, dir_okay=False), required=True)
@click.option("--direction", type=click.Choice(list(translit_mod.DIRECTIONS)), required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--beam", type=click.IntRange(min=1), default=translit_mod.DEFAULT_BEAM, show_default=True)
@click.option("--lm-order", type=click.IntRange(min=1), default=translit_mod.DEFAULT_LM_ORDER,
              show_default=True)
@click.option("--folds", type=int, default=0, show_default=True,
              help="0 = 80/10/10 holdout; k >= 2 = k-fold cross-validation.")
@click.option("--out", type=click.Path(file_okay=False), required=True)
@_friendly
def pipeline(corpus, direction, seed, beam, lm_order, folds, out):
    """Run split, training, transliteration and scoring in one go."""
    with _stage("load"):
        pairs = corpus_mod.load(corpus)
    d = translit_mod.DIRECTIONS[direction]
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {
        "command": "pipeline",
        "direction": direction,
        "corpus": str(corpus),
        "seed": seed,
        "beam": beam,
        "lm_order": lm_order,
        "folds": folds,
    }
    meta = _meta(config, [corpus], seed=seed)
    (out_dir / "config.json").write_text(
        json.dumps({"config": config, "meta": meta}, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )

    def run_block(block_dir: Path, train_idx, test_idx) -> tuple[list[int], list[str]]:
        block_dir.mkdir(parents=True, exist_ok=True)
        train_pairs = [pairs[i] for i in train_idx]
        test_pairs = [pairs[i] for i in test_idx]
        corpus_mod.save(train_pairs, block_dir / "train.jsonl")
        corpus_mod.save(test_pairs, block_dir / "test.jsonl")
        with _stage("build-dict"):
            dictionary = translit_mod.build_dictionary(train_pairs, direction)
        translit_mod.save_dictionary(dictionary, block_dir / "dict.json")
        with _stage("train-lm"):
            lm = translit_mod.train_lm([d.target_text(p) for p in train_pairs], order=lm_order)
        translit_mod.save_lm(lm, block_dir / "lm.json")
        table = translit_mod.default_mapping_table(direction)
        sources = [d.source_text(p) for p in test_pairs]
        with _stage("translit"):
            hyp_lines = [
                out.text
                for out in translit_mod.transliterate_lines(
                    sources, dictionary, table, lm, beam, direction=direction
                )
            ]
        _write_lines(str(block_dir / "test.src.txt"), sources)
        _write_lines(str(block_dir / "test.hyp.txt"), hyp_lines)
        return list(test_idx), hyp_lines

    blocks: list[tuple[list[int], list[str]]] = []
    if folds == 0:
        with _stage("split"):
            spec = corpus_mod.split_holdout(pairs, seed=seed)
        (out_dir / "split.json").write_text(
            json.dumps(
                {"seed": seed, "train": list(spec.train), "dev": list(spec.dev), "test": list(spec.test)},
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        corpus_mod.save([pairs[i] for i in spec.dev], out_dir / "dev.jsonl")
        blocks.append(run_block(out_dir, spec.train, spec.test))
    else:
        with _stage("split"):
            specs = corpus_mod.kfold(pairs, k=folds, seed=seed)
        for i, spec in enumerate(specs):
            blocks.append(run_block(out_dir / f"fold{i:02d}", spec.train, spec.test))

    scored_indices: list[int] = []
    scored_hyps: list[str] = []
    for test_idx, hyp_lines in blocks:
        scored_indices.extend(test_idx)
        scored_hyps.extend(hyp_lines)
    refs_raw = [d.reference(pairs[i]) for i in scored_indices]
    groups = [_group_label(pairs[i]) for i in scored_indices]
    eval_pairs = _eval_pairs(_eval_texts(refs_raw, d.target), scored_hyps, groups, d.target)
    _write_lines(str(out_dir / "test.ref.txt"), refs_raw)
    with _stage("score"):
        report = score_corpus(eval_pairs)
    name = f"baseline-{direction}"
    table_text = _report_table({name: report}, meta)
    (out_dir / "report.txt").write_text(table_text, encoding="utf-8")
    (out_dir / "report.jsonl").write_text(
        _report_jsonl(name, report, meta), encoding="utf-8"
    )
    click.echo(table_text, nl=False)


def _score_rows(path: str) -> Iterator[tuple[int, dict]]:
    """(1-based line number, row) for each non-blank line of a score file."""
    for lineno, line in enumerate(_read_lines(path), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(f"invalid JSON ({e.msg})", line=lineno, path=path) from None
        if not isinstance(row, dict):
            raise ParseError("expected a JSON object", line=lineno, path=path)
        yield lineno, row


@cli.command()
@click.option("--scores", type=click.Path(exists=True, dir_okay=False), multiple=True, required=True,
              help="Structured score file produced by `score` or `pipeline`; repeatable.")
@click.option("-o", "--output", default="-")
@_friendly
def report(scores, output):
    """Render one or more structured score files as a side-by-side table."""
    systems: dict[str, MetricReport] = {}
    metas = []
    for path in scores:
        groups: dict[str, GroupScores] = {}
        overall: GroupScores | None = None
        name = Path(path).stem.removesuffix(".scores")
        for lineno, r in _score_rows(path):
            if "meta" in r:
                metas.append(r["meta"])
                continue
            for key in ("group", "n_pairs", *METRIC_COLUMNS):
                if key not in r:
                    raise ParseError(f"missing field {key!r}", line=lineno, path=path)
            for key in ("n_pairs", *METRIC_COLUMNS):
                if not isinstance(r[key], (int, float)):
                    raise ParseError(f"field {key!r} is not a number", line=lineno, path=path)
            name = r.get("system", name)
            scores_row = GroupScores(
                n_pairs=r["n_pairs"],
                **{m: r[m] for m in METRIC_COLUMNS},
            )
            if r["group"] == "Overall":
                overall = scores_row
            else:
                groups[r["group"]] = scores_row
        if overall is None:
            raise ParseError("no Overall row found", path=path)
        systems[name] = MetricReport(groups=groups, overall=overall)
    merged_meta = metas[0] if metas else None
    _write_lines(output, _report_table(systems, merged_meta).splitlines())


def main(argv: Sequence[str] | None = None):
    cli(args=argv, auto_envvar_prefix="TGFA")


if __name__ == "__main__":
    main()
