"""Seeded input generator for the three workloads.

Everything here is a function of the seed alone, through one
``random.Random`` (the head of each vocabulary excepted, see
``_lexicon``). The generator never imports tgfa: it reads
``map_tg2fa.tsv`` as plain TSV and builds each raw line together with
the clean forms the checks compare against (train-mode and eval-mode
text written directly from the word list, not by running the
normalizer).

Vocabulary: Tajik words are built from syllables and spelled in
Perso-Arabic by choosing, per character, one candidate of
``map_tg2fa.tsv``; every letter drawn is covered by both tables, so no
token ever hits an inventory gap. Word frequencies follow a Zipf law.
Each word holds at least one consonant whose candidates are non-empty in
both directions, so no token can transliterate to the empty string.

Raw noise: capitals, punctuation on both sides (Latin and Arabic
forms), digits (ASCII and Persian), Latin tokens, stand-alone dashes,
Tajik joining hyphens in compounds (ZWNJ on the Farsi side) and Arabic
diacritics on the Farsi side.
"""

from __future__ import annotations

import bisect
import json
import random
import unicodedata
from dataclasses import dataclass
from pathlib import Path

ZWNJ = "‌"
EMPTY_MARK = "∅"

# Diacritics that map_fa2tg.tsv covers (fatha, kasra, damma, sukun,
# shadda, the tanwin series, superscript alef).
DIACRITICS = "ًٌٍَُِّْٰ"

# Standard Tajik alphabet minus the four Russian-loan letters, weighted
# roughly by frequency. ъ is left out of SOLID: its Farsi candidate ع may
# map back to the empty string.
CONSONANTS = {
    "б": 3, "в": 3, "г": 2, "ғ": 1, "д": 4, "ж": 0.5, "з": 2, "й": 1.5,
    "к": 3, "қ": 1.5, "л": 3, "м": 4, "н": 5, "п": 1.5, "р": 5, "с": 4,
    "т": 4, "ф": 1, "х": 2, "ҳ": 2, "ч": 1, "ҷ": 1, "ш": 3, "ъ": 0.3,
}
VOWELS = {
    "а": 6, "о": 4, "и": 5, "у": 2, "е": 1.5, "ӣ": 1.5, "ӯ": 1, "э": 0.3,
    "ё": 0.3, "ю": 0.3, "я": 0.5,
}
SOLID = frozenset(CONSONANTS) - {"ъ"}

# Dataset label -> domain, as registered in tgfa.corpus.DATASET_DOMAINS.
DOMAIN_OF = {
    "Shahnameh": "poetry",
    "Masnavi": "poetry",
    "Dr Blog": "prose",
    "Jamujam Blog": "prose",
    "Places": "names",
    "People": "names",
    "Dictionary": "dictionary",
}

# (dataset, share of the corpus); the shares are deliberately uneven.
KFOLD_MIX = (
    ("Shahnameh", 0.19),
    ("Masnavi", 0.11),
    ("Dr Blog", 0.14),
    ("Jamujam Blog", 0.07),
    ("Places", 0.13),
    ("People", 0.09),
    ("Dictionary", 0.27),
)

# Words per line: (low, high) of a uniform draw; means 9, 14, 2 and 1.
LINE_WORDS = {"poetry": (7, 11), "prose": (10, 18), "names": (1, 3), "dictionary": (1, 1)}

TAJIK_PUNCT = (",", ".", "!", "?", ":", ";", "»")
FARSI_PUNCT = ("،", ".", "!", "؟", ":", "؛", "»")
PERSIAN_DIGITS = "۰۱۲۳۴۵۶۷۸۹"
LATIN_TOKENS = ("UNESCO", "OK", "km", "CD", "Wi-Fi")

# Vocabulary types shared by every seed (see _lexicon).
HEAD = 60

# Workload sizes.
KFOLD_PAIRS = 600
SCORE_PAIRS = 96
SCORE_RATES = (("sys_low", 0.02), ("sys_mid", 0.08), ("sys_high", 0.20), ("sys_exact", 0.0))
DECODE_TRAIN_PAIRS = 600
DECODE_LINES = 3000


def read_table(path: str | Path) -> dict[str, tuple[str, ...]]:
    """Parse a ``source<TAB>cand|cand`` mapping table (``∅`` = empty, U+XXXX sources)."""
    table: dict[str, tuple[str, ...]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        src, cands = line.split("\t")
        if src.upper().startswith("U+"):
            src = chr(int(src[2:], 16))
        table[src] = tuple("" if c == EMPTY_MARK else c for c in cands.split("|"))
    return table


@dataclass(frozen=True)
class Word:
    tg: str  # train-mode Tajik: lowercase, may hold one joining hyphen
    fa: str  # Farsi letters, may hold one ZWNJ (compound seam)


@dataclass(frozen=True)
class Line:
    """One generated pair: raw sides plus the forms the checks expect."""

    dataset: str
    fa_raw: str
    tg_raw: str
    fa_train: str  # ZWNJ and diacritics kept
    tg_train: str  # lowercase, joining hyphens kept

    @property
    def domain(self) -> str:
        return DOMAIN_OF[self.dataset]

    @property
    def fa_eval(self) -> str:
        return eval_farsi(self.fa_train)

    @property
    def tg_eval(self) -> str:
        return self.tg_train.replace("-", "")

    def row(self) -> dict:
        return {"fa": self.fa_raw, "tg": self.tg_raw, "dataset": self.dataset}


def eval_farsi(train_text: str) -> str:
    """Eval form of train-mode Farsi: no ZWNJ, no combining marks, single spaces."""
    kept = "".join(c for c in train_text if c != ZWNJ and unicodedata.category(c) != "Mn")
    return " ".join(kept.split())


def _weighted(rng: random.Random, weights: dict[str, float]) -> str:
    return rng.choices(list(weights), weights=list(weights.values()))[0]


class Lexicon:
    """A Zipf-ranked list of words; rank r is drawn with weight 1/(r+1)**s."""

    def __init__(self, words: list[Word], s: float = 1.07):
        self.words = words
        cum, total = [], 0.0
        for r in range(len(words)):
            total += 1.0 / (r + 1) ** s
            cum.append(total)
        self._cum = cum

    def draw(self, rng: random.Random) -> Word:
        x = rng.random() * self._cum[-1]
        return self.words[min(bisect.bisect_right(self._cum, x), len(self.words) - 1)]


def _stem(rng: random.Random) -> str:
    while True:
        parts = []
        if rng.random() < 0.15:
            parts.append(_weighted(rng, VOWELS))
        for _ in range(rng.choices((1, 2, 3, 4), weights=(3, 5, 3, 1))[0]):
            parts.append(_weighted(rng, CONSONANTS) + _weighted(rng, VOWELS))
            if rng.random() < 0.35:
                parts.append(_weighted(rng, CONSONANTS))
        stem = "".join(parts)
        if SOLID & set(stem):
            return stem


def _words(rng: random.Random, tg2fa, n: int, compounds: float, seen: set[str]) -> list[Word]:
    """``n`` new words, each spelled in Perso-Arabic along its tg2fa lattice."""

    def spell(tg: str) -> str:
        return "".join(rng.choice(tg2fa[c]) for c in tg)

    words: list[Word] = []
    while len(words) < n:
        if rng.random() < compounds:
            a, b = _stem(rng), _stem(rng)
            tg, fa = f"{a}-{b}", spell(a) + ZWNJ + spell(b)
        else:
            tg = _stem(rng)
            fa = spell(tg)
        if tg not in seen:
            seen.add(tg)
            words.append(Word(tg, fa))
    return words


def _lexicon(name: str, rng: random.Random, tg2fa, size: int, compounds: float) -> Lexicon:
    # The HEAD most frequent types (function words, common names) are the
    # same for every seed; only the tail comes from the seed. A seeded
    # head would let a few types' lengths and ambiguity swing the work of
    # a whole run from seed to seed.
    seen: set[str] = set()
    head = _words(random.Random(f"perfbench-head:{name}"), tg2fa, HEAD, compounds, seen)
    return Lexicon(head + _words(rng, tg2fa, size - HEAD, compounds, seen))


class Generator:
    def __init__(self, seed: int, tg2fa: dict[str, tuple[str, ...]]):
        self.rng = random.Random(f"perfbench:{seed}")
        self.general = _lexicon("general", self.rng, tg2fa, 3000, compounds=0.05)
        self.names = _lexicon("names", self.rng, tg2fa, 700, compounds=0.0)

    # -- lines ----------------------------------------------------------

    def _diacritize(self, fa: str) -> str:
        rng = self.rng
        if rng.random() >= 0.12:
            return fa
        spots = [i for i, c in enumerate(fa) if c != ZWNJ]
        i = rng.choice(spots)
        return fa[: i + 1] + rng.choice(DIACRITICS) + fa[i + 1 :]

    def line(self, dataset: str, n_words: int | None = None, words: list[Word] | None = None) -> Line:
        rng = self.rng
        domain = DOMAIN_OF[dataset]
        if words is None:
            lo, hi = LINE_WORDS[domain]
            n = n_words if n_words is not None else rng.randint(lo, hi)
            lexicon = self.names if domain == "names" else self.general
            words = [lexicon.draw(rng) for _ in range(n)]
        fa_words = [self._diacritize(w.fa) for w in words]
        tg_raw, fa_raw = [], []
        for i, (w, fa) in enumerate(zip(words, fa_words)):
            tg = w.tg
            if domain == "names" or (i == 0 and domain in ("poetry", "prose")):
                tg = tg[0].upper() + tg[1:]
            elif rng.random() < 0.02:
                tg = tg.upper()
            if domain in ("poetry", "prose") and rng.random() < 0.04:
                # A token that vanishes on both sides under normalization.
                kind = rng.randrange(3)
                if kind == 0:
                    number = str(rng.randint(1, 2000))
                    tg_raw.append(number)
                    fa_raw.append("".join(PERSIAN_DIGITS[int(d)] for d in number))
                elif kind == 1:
                    tok = rng.choice(LATIN_TOKENS)
                    tg_raw.append(tok)
                    fa_raw.append(tok)
                else:
                    tg_raw.append("-")
                    fa_raw.append("—")
            if i > 0 and rng.random() < 0.03:
                tg_raw.append("«" + tg)
                fa_raw.append("«" + fa)
            else:
                tg_raw.append(tg)
                fa_raw.append(fa)
            if rng.random() < 0.08:
                k = rng.randrange(len(TAJIK_PUNCT))
                tg_raw[-1] += TAJIK_PUNCT[k]
                fa_raw[-1] += FARSI_PUNCT[k]
        if domain in ("poetry", "prose"):
            tg_raw[-1] += "."
            fa_raw[-1] += "."
        sep = "  " if rng.random() < 0.05 else " "
        return Line(
            dataset=dataset,
            fa_raw=sep.join(fa_raw),
            tg_raw=sep.join(tg_raw),
            fa_train=" ".join(fa_words),
            tg_train=" ".join(w.tg for w in words),
        )

    def corpus(self, n_pairs: int, mix=KFOLD_MIX) -> list[Line]:
        counts = [int(n_pairs * share) for _, share in mix]
        counts[0] += n_pairs - sum(counts)
        lines: list[Line] = []
        for (dataset, _), count in zip(mix, counts):
            if DOMAIN_OF[dataset] == "dictionary":
                # Headwords: distinct lexicon entries, one per line.
                entries = self.rng.sample(self.general.words, count)
                lines.extend(self.line(dataset, words=[w]) for w in entries)
            else:
                lines.extend(self.line(dataset) for _ in range(count))
        self.rng.shuffle(lines)
        return lines


# -- workloads ------------------------------------------------------------


def _edit(rng: random.Random, text: str, rate: float) -> tuple[str, int]:
    """Apply seeded character edits to an eval-form line; returns (text, edits).

    Edits never touch spaces and never empty a word, so the result is
    still in eval form and its edit distance to ``text`` is at most the
    number of edits.
    """
    letters = list(CONSONANTS) + list(VOWELS)
    out_words, edits = [], 0
    for word in text.split(" "):
        chars = list(word)
        out: list[str] = []
        for i, c in enumerate(chars):
            if rng.random() >= rate:
                out.append(c)
                continue
            op = rng.randrange(4)
            if op == 0 and len(chars) - i + len(out) > 1:
                edits += 1  # delete
            elif op == 1:
                out.extend((c, rng.choice(letters)))
                edits += 1  # insert
            else:
                out.append(rng.choice([x for x in letters if x != c]))
                edits += 1  # substitute
        out_words.append("".join(out))
    return " ".join(out_words), edits


def _write_jsonl(path: Path, lines: list[Line]) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(json.dumps(line.row(), ensure_ascii=False, sort_keys=True) + "\n")


def _write_text(path: Path, lines: list[str]) -> None:
    path.write_text("".join(s + "\n" for s in lines), encoding="utf-8", newline="\n")


def make_kfold(gen: Generator, work: Path) -> dict:
    lines = gen.corpus(KFOLD_PAIRS)
    _write_jsonl(work / "corpus.jsonl", lines)
    return {"lines": lines}


def make_score(gen: Generator, work: Path) -> dict:
    rng = gen.rng
    lines = []
    for i in range(SCORE_PAIRS):
        dataset = ("Shahnameh", "Masnavi", "Dr Blog", "Jamujam Blog")[i % 4]
        # A run of verses or a paragraph: a long reference line. The word
        # counts follow a fixed schedule, so the kernel's quadratic work
        # varies little from seed to seed.
        lo, hi = (18, 26) if DOMAIN_OF[dataset] == "poetry" else (22, 32)
        lines.append(gen.line(dataset, n_words=lo + (7 * i) % (hi - lo + 1)))
    _write_jsonl(work / "corpus.jsonl", lines)
    systems = {}
    for name, rate in SCORE_RATES:
        hyps, edits = [], []
        for line in lines:
            hyp, k = _edit(rng, line.tg_eval, rate)
            hyps.append(hyp)
            edits.append(k)
        _write_text(work / f"{name}.txt", hyps)
        systems[name] = {"hyps": hyps, "edits": edits}
    return {"lines": lines, "systems": systems}


def make_decode(gen: Generator, work: Path) -> dict:
    train = gen.corpus(DECODE_TRAIN_PAIRS)
    _write_jsonl(work / "train.jsonl", train)
    inputs = [
        gen.line(gen.rng.choice(("Places", "People", "Dictionary")))
        for _ in range(DECODE_LINES)
    ]
    _write_text(work / "input.fa.txt", [line.fa_raw for line in inputs])
    return {"train": train, "inputs": inputs}


MAKERS = {"kfold": make_kfold, "score": make_score, "decode": make_decode}


def generate(workload: str, seed: int, work: Path, data_dir: Path) -> dict:
    """Write the workload's input files under ``work``; return what the checks need."""
    gen = Generator(seed, read_table(data_dir / "map_tg2fa.tsv"))
    work.mkdir(parents=True, exist_ok=True)
    return MAKERS[workload](gen, work)
