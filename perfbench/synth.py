"""Seeded generator of synthetic metricval studies.

A study is written as the file layout the metricval README documents:
source, reference and per-system output files, a judgments CSV, a
system metadata CSV, optional external score TSVs, and a config.json whose
paths are relative to the study directory.  The program only ever sees
these files.

One latent quality value per (system, segment) item drives everything:
hypotheses are the reference with token substitutions, deletions,
insertions and swaps at a rate set by (1 - quality); DA ratings are the
quality seen through per-worker bias, scale and noise; external metric
scores are the quality plus noise that grows from one metric to the next.
Correlations, tertile bins, failure cases, metadata groups and the
significance matrix are therefore all non-degenerate.

Generation is byte-reproducible: every random stream is a random.Random
seeded with a string (hashed with SHA-512, independent of PYTHONHASHSEED),
nothing iterates a set or an unordered dict, and files are written as UTF-8
bytes with "\\n" line ends.

Run ``python3 perfbench/synth.py SEED OUT_DIR [WORKLOAD ...]`` to write
the studies of every (or the named) workload under OUT_DIR/<workload>/.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1

SYSTEM_TYPES = ("neural", "statistical", "rule-based")
TRACKS = ("news", "tuning")


@dataclass(frozen=True)
class Workload:
    """Shape of one synthetic study.

    Attributes:
        name: workload name as given to ``--workload``.
        segments: test-set size.
        systems: number of system output files.
        judgments_per_item: ratings per (system, segment) item.
        workers: size of the rater pool the ratings are drawn from.
        ref_tokens: (shortest, longest) reference length in tokens.
        vocab: "plain" (ASCII words, punctuation as separate tokens) or
            "intl" (accented and dashed words, punctuation glued to words,
            capitalised sentence starts).
        externals: number of external segment-level metric score files.
        single_workers: extra raters with exactly one judgment each.
        constant_workers: raters who give every item the same score.
        config: config.json keys beyond the input paths.
    """

    name: str
    segments: int
    systems: int
    judgments_per_item: int
    workers: int
    ref_tokens: tuple[int, int] = (8, 40)
    vocab: str = "plain"
    externals: int = 0
    single_workers: int = 0
    constant_workers: int = 0
    config: dict = field(default_factory=dict)

    @property
    def items(self) -> int:
        return self.segments * self.systems


WORKLOADS = {
    w.name: w
    for w in (
        # ROADMAP's M mix (refs of 8-40 tokens from a 3k-word vocabulary,
        # 2 ratings per item from 200 raters, default config) at 300 of M's
        # 2000 segments, so that several runs fit in one benchmark run.
        # Sentence BLEU + chrF scoring and O(n^2) segment Kendall do nearly
        # all the work: scoring and Kendall gains show here.
        Workload(
            name="m-default",
            segments=300,
            systems=15,
            judgments_per_item=2,
            workers=200,
        ),
        # 24 external segment-level metric files plus one sentence BLEU,
        # Spearman at segment level, Bonferroni.  Work goes to ingestion,
        # merging, per-metric table scans, per-metric analyses, a 25-metric
        # Williams matrix and a large report; no chrF and no segment-level
        # Kendall, so gains there must show nothing here.
        Workload(
            name="wide-external",
            segments=250,
            systems=12,
            judgments_per_item=2,
            workers=200,
            externals=24,
            config={
                "metrics": {"bleu": {"kind": "bleu"}},
                "segment_coef": "spearman",
                "bonferroni": True,
            },
        ),
        # 15 ratings per item (as WMT17 segment-level DA), with single-rating
        # and constant raters that zscore drops, and the assessor-count
        # simulation.  One BLEU with the intl tokenizer, lowercase and corpus
        # aggregate over short accented and dashed sentences, Pearson at
        # segment level: the judgments layer and the intl/corpus scoring
        # paths, which m-default does not use.
        Workload(
            name="dense-intl",
            segments=300,
            systems=20,
            judgments_per_item=15,
            workers=400,
            ref_tokens=(4, 20),
            vocab="intl",
            single_workers=3,
            constant_workers=2,
            config={
                "metrics": {"bleu": {"kind": "bleu"}},
                "tokenizer": "intl",
                "lowercase": True,
                "aggregate": "corpus",
                "segment_coef": "pearson",
                "assessor_sim": {"i_values": [1, 2, 4, 8], "n_total": 15, "target_r": 0.9},
            },
        ),
    )
}

_ONSETS = ("b", "c", "d", "f", "g", "h", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z",
           "br", "ch", "dr", "gl", "pr", "sh", "st", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou")
_INTL_VOWELS = _VOWELS + ("é", "è", "ü", "ö", "å", "ø", "í", "ñe", "ß")
_PLAIN_PUNCT = (",", ".", ";", ":", "?", "!", "'s", "(", ")", '"')
_INTL_TRAILING = (",", ".", ";", ":", "!", "?", "…", "»", ")")
_INTL_LEADING = ("«", "(", "¿", "“")
_INTL_DASHES = ("-", "–", "—")


def _stream(seed: int, workload: str, purpose: str) -> random.Random:
    return random.Random(f"{seed}/{workload}/{purpose}")


def _vocabulary(rng: random.Random, size: int, vowels: tuple[str, ...]) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(
            rng.choice(_ONSETS) + rng.choice(vowels) for _ in range(rng.randint(1, 3))
        )
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _Language:
    """A seeded vocabulary with Zipf-like word frequencies."""

    def __init__(self, rng: random.Random, kind: str, size: int = 3000):
        self.kind = kind
        self.words = _vocabulary(rng, size, _INTL_VOWELS if kind == "intl" else _VOWELS)
        # Zipf-like frequencies, as in natural text.
        total = 0.0
        self.cum = []
        for rank in range(size):
            total += 1.0 / (rank + 1)
            self.cum.append(total)

    def sentence(self, rng: random.Random, lengths: tuple[int, int] = (8, 40)) -> list[str]:
        n = rng.randint(*lengths)
        tokens = rng.choices(self.words, cum_weights=self.cum, k=n)
        if self.kind == "plain":
            # Punctuation as separate whitespace tokens.
            return [rng.choice(_PLAIN_PUNCT) if rng.random() < 0.08 else t for t in tokens]
        out = []
        for t in tokens:
            r = rng.random()
            if r < 0.06:
                t = t + rng.choice(_INTL_TRAILING)
            elif r < 0.09:
                t = rng.choice(_INTL_LEADING) + t
            elif r < 0.12:
                t = t + rng.choice(_INTL_DASHES) + rng.choice(self.words)
            elif r < 0.14:
                t = f"{rng.randint(1, 999)}{rng.choice('.,')}{rng.randint(0, 99)}"
            elif r < 0.16:
                t = "l'" + t
            out.append(t)
        out[0] = out[0][:1].upper() + out[0][1:]
        return out

    def word(self, rng: random.Random) -> str:
        return rng.choices(self.words, cum_weights=self.cum, k=1)[0]


def _perturb(tokens: list[str], quality: float, lang: _Language, rng: random.Random) -> list[str]:
    """A hypothesis: the reference degraded in proportion to (1 - quality)."""
    bad = 1.0 - quality
    out: list[str] = []
    for t in tokens:
        r = rng.random()
        if r < 0.15 * bad:
            continue
        out.append(lang.word(rng) if r < 0.75 * bad else t)
        if rng.random() < 0.1 * bad:
            out.append(lang.word(rng))
    if not out:
        out.append(lang.word(rng))
    for _ in range(int(bad * len(out) / 4)):
        i = rng.randrange(len(out))
        j = min(i + 1, len(out) - 1)
        out[i], out[j] = out[j], out[i]
    return out


def _clamp(x: float, lo: float, hi: float) -> float:
    return lo if x < lo else hi if x > hi else x


def _write(path: Path, lines: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes("".join(line + "\n" for line in lines).encode("utf-8"))


def generate(workload: Workload, seed: int, out_dir: str | Path) -> dict:
    """Write one seeded study under out_dir; returns its shape.

    The returned mapping holds the counts the benchmark derives expected
    values from: items, judgment rows, external rows.
    """
    out = Path(out_dir)
    w = workload
    lang = _Language(_stream(seed, w.name, "vocab"), w.vocab)
    src_lang = _Language(_stream(seed, w.name, "source-vocab"), "plain")
    text_rng = _stream(seed, w.name, "text")
    systems = [f"sys{i + 1:02d}" for i in range(w.systems)]

    sources = [" ".join(src_lang.sentence(text_rng)) for _ in range(w.segments)]
    ref_tokens = [lang.sentence(text_rng, w.ref_tokens) for _ in range(w.segments)]

    q_rng = _stream(seed, w.name, "quality")
    levels = [0.35 + 0.55 * i / max(1, w.systems - 1) for i in range(w.systems)]
    q_rng.shuffle(levels)
    difficulty = [q_rng.gauss(0.0, 0.1) for _ in range(w.segments)]
    quality = [
        [_clamp(levels[s] + difficulty[i] + q_rng.gauss(0.0, 0.1), 0.02, 0.98)
         for i in range(w.segments)]
        for s in range(w.systems)
    ]

    _write(out / "data" / "source.txt", sources)
    _write(out / "data" / "reference.txt", [" ".join(t) for t in ref_tokens])
    hyp_rng = _stream(seed, w.name, "hypotheses")
    for s, system_id in enumerate(systems):
        _write(
            out / "data" / "outputs" / f"{system_id}.txt",
            [" ".join(_perturb(ref_tokens[i], quality[s][i], lang, hyp_rng))
             for i in range(w.segments)],
        )
    _write(
        out / "data" / "systems.csv",
        ["system_id,system_type,track"]
        + [f"{sid},{SYSTEM_TYPES[s % 3]},{TRACKS[s % 2]}" for s, sid in enumerate(systems)],
    )

    da_rng = _stream(seed, w.name, "judgments")
    workers = [f"w{i + 1:04d}" for i in range(w.workers)]
    bias = [da_rng.uniform(-12.0, 12.0) for _ in workers]
    scale = [da_rng.uniform(0.6, 1.2) for _ in workers]
    constant = [f"c{i + 1:02d}" for i in range(w.constant_workers)]
    rows = ["worker_id,system_id,segment_id,score"]
    for s, system_id in enumerate(systems):
        for i in range(w.segments):
            for k, wi in enumerate(da_rng.sample(range(w.workers), w.judgments_per_item)):
                if constant and k == 0 and da_rng.random() < 0.01:
                    rows.append(f"{da_rng.choice(constant)},{system_id},{i},50.0")
                    continue
                score = 50.0 + bias[wi] + scale[wi] * (100.0 * quality[s][i] - 50.0)
                score = _clamp(score + da_rng.gauss(0.0, 10.0), 0.0, 100.0)
                rows.append(f"{workers[wi]},{system_id},{i},{score:.1f}")
    for k in range(w.single_workers):
        rows.append(
            f"s{k + 1:02d},{da_rng.choice(systems)},{da_rng.randrange(w.segments)},"
            f"{da_rng.uniform(0.0, 100.0):.1f}"
        )
    _write(out / "data" / "judgments.csv", rows)

    ext_rng = _stream(seed, w.name, "external")
    external = []
    for m in range(w.externals):
        metric_id = f"ext{m + 1:02d}"
        noise = 0.05 + 0.015 * m
        path = f"data/external/{metric_id}.tsv"
        _write(
            out / path,
            [f"{metric_id}\t{system_id}\t{i}\t{quality[s][i] + ext_rng.gauss(0.0, noise):.6f}"
             for s, system_id in enumerate(systems) for i in range(w.segments)],
        )
        external.append(path)

    config = {
        "source": "data/source.txt",
        "references": ["data/reference.txt"],
        "outputs_dir": "data/outputs",
        "judgments": "data/judgments.csv",
        "metadata": "data/systems.csv",
        "out_dir": "out",
        "format": "json",
        **w.config,
    }
    if external:
        config["external_scores"] = external
    (out / "config.json").write_bytes(
        (json.dumps(config, indent=2, sort_keys=True) + "\n").encode("utf-8")
    )
    return {
        "items": w.items,
        "judgment_rows": len(rows) - 1,
        "external_rows": w.externals * w.items,
    }


def digest_tree(root: str | Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    root = Path(root)
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


if __name__ == "__main__":
    if len(sys.argv) < 3 or not set(sys.argv[3:]) <= WORKLOADS.keys():
        sys.exit(f"usage: synth.py SEED OUT_DIR [{'|'.join(WORKLOADS)} ...]")
    for name in sys.argv[3:] or WORKLOADS:
        shape = generate(WORKLOADS[name], int(sys.argv[1]), Path(sys.argv[2]) / name)
        print(name, json.dumps(shape, sort_keys=True))
