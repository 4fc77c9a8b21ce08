"""Baseline metric scoring: tokenization, BLEU, chrF, and score tables.

Scores from different tools disagree for boring reasons (tokenization,
smoothing, length penalty), so every scoring configuration here is captured
in a canonical signature string recorded next to the scores it produced.
Built-in scorers cover sentence BLEU, corpus BLEU, and chrF; anything else
enters the study as an external score file.

BLEU consumes token sequences (pair it with a TokenizationScheme); chrF
consumes raw text and is unaffected by token-level choices.  Scoring builds
each segment's integer sufficient statistics (n-gram matches and totals per
order) once for all systems' hypotheses.  Sentence scores come from them,
corpus aggregates pool them, and the single-pair functions are
one-hypothesis calls of the same code.

A MetricScoreTable maps each metric id to one MetricScores record.  Only
this module builds or unpacks the flat (metric, system[, segment]) keys of
the TSV and JSON forms; other modules read one metric at a time.

A record holds its scores on a float64 grid over its axes, sorted distinct
system ids and, for segment scores, segment ids, with NaN for "no score":
SegmentScores' score[i, j] is the score of system axes[0][i] on segment
axes[1][j], SystemScores' score[i] that of system axes[0][i].  Both read as
mappings.  DA is a SparseScores: the same kind of axes and the cells of
them it scores, without the grid, so it costs its number of keys however
sparse its judged systems and segments.  on(axes, cells) reads a record at
those cells, NaN where it has no score, so aligning a metric with DA is
the mask of DA's cells the metric scores.  score_systems and
load_external_metric_scores use the corpus's systems and segments
0..N-1, so a score costs 8 bytes on the workloads this serves; the loader
fills each grid as lines are read and names a duplicate at its line.
merge_tables gathers two records onto the union of their axes.  Where
the order the scores were given (file order) is not key order, an int64
rank grid keeps it, so a merge names the duplicate given first.  One
producer, _cell_rows, makes every per-cell table (scores, DA at both levels,
bin membership) CHUNK_ROWS rows at a time, so no writer holds a row per cell.
"""

from __future__ import annotations

import math
import re
import unicodedata
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import partial
from itertools import repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .corpus import EvaluationCorpus
from .correlation import SEGMENT, SYSTEM, _mean
from .errors import ConfigError, DataError, utf8_input

TOKENIZER_NAMES = ("whitespace", "intl", "char")
SMOOTHING_NAMES = ("none", "add-k", "exp-decay")
AGGREGATE_MODES = ("mean", "corpus")
SIGNATURE_PREFIX = "# signature: "
# The largest segment id an int64 column holds.
MAX_SEGMENT_ID = 2**63 - 1
# Rows made into Python objects at once, by a table writer (report.json,
# every csv-dir file, scores.tsv) or a judgments grouping: writing a file
# holds at most one chunk's text, and a few copies of it, on top of the
# rows.  A report.json chunk of segment scores is about 90 kB.
CHUNK_ROWS = 1000


@dataclass(frozen=True)
class TokenizationScheme:
    """How text becomes tokens.

    Attributes:
        name: "whitespace" (split on runs of whitespace), "intl"
            (additionally split punctuation and symbols, keeping
            digit-adjacent punctuation attached), or "char" (one token per
            grapheme-like unit, whitespace dropped).
        lowercase: lowercase the raw text before tokenizing.
    """

    name: str = "whitespace"
    lowercase: bool = False

    def __post_init__(self):
        if self.name not in TOKENIZER_NAMES:
            raise ConfigError(
                f"unknown tokenizer {self.name!r}; expected one of {TOKENIZER_NAMES}"
            )


class _CategoryTable(dict):
    """Code point -> class letter of its Unicode general category.

    P (punctuation), S (symbol), N (number) and M (mark) keep their letter;
    every other category, whitespace included, maps to "x".  Entries are
    filled on first lookup, so only code points met in text are classified.
    """

    def __missing__(self, cp: int) -> str:
        major = unicodedata.category(chr(cp))[0]
        self[cp] = letter = major if major in "PSNM" else "x"
        return letter


_CLASSES = _CategoryTable()

# The intl rules only insert spaces and only read categories, so they run on
# the text's class letters (its "shape"), never on whole-Unicode classes.
_INTL_RULES = (
    (re.compile("([^N])(P)"), r"\1 \2 "),
    (re.compile("(P)([^N])"), r" \1 \2"),
    (re.compile("(S)"), r" \1 "),
)


def _tokenize_intl(text: str) -> list[str]:
    shape = text.translate(_CLASSES)
    if "P" not in shape and "S" not in shape:
        return text.split()
    for pattern, repl in _INTL_RULES:
        shape = pattern.sub(repl, shape)
    # no code point maps to " ", so every space in the shape is an inserted one
    pieces = []
    start = 0
    for part in shape.split(" "):
        pieces.append(text[start : start + len(part)])
        start += len(part)
    return " ".join(pieces).split()


def _tokenize_char(text: str) -> list[str]:
    # Grapheme approximation: combining marks ride on the preceding base
    # character; full UAX #29 segmentation is out of scope.
    tokens: list[str] = []
    attached = False
    for ch in text:
        if ch.isspace():
            attached = False
            continue
        if attached and _CLASSES[ord(ch)] == "M":
            tokens[-1] += ch
        else:
            tokens.append(ch)
        attached = True
    return tokens


def tokenize(text: str, scheme: TokenizationScheme) -> tuple[str, ...]:
    """Deterministically tokenize text under the given scheme."""
    if scheme.lowercase:
        text = text.lower()
    if scheme.name == "whitespace":
        return tuple(text.split())
    if scheme.name == "intl":
        return tuple(_tokenize_intl(text))
    return tuple(_tokenize_char(text))


@dataclass(frozen=True)
class BleuConfig:
    """BLEU scoring knobs; all recorded in the config signature.

    Attributes:
        max_n: highest n-gram order.
        smoothing: "none", "add-k" (k added to numerator and denominator of
            every order from smooth_min_order up), or "exp-decay" (an order
            with zero matches scores 1 / (2^z * denominator) where z counts
            the zero-match orders seen so far).
        smooth_k: the k of add-k.
        smooth_min_order: first order that add-k applies to.  The default 2
            leaves unigram precision unsmoothed.
        use_brevity_penalty: multiply by exp(1 - r/c) when the hypothesis is
            shorter than the closest reference.
        effective_n_truncation: score only orders up to the hypothesis
            length instead of zeroing out a short hypothesis.
    """

    max_n: int = 4
    smoothing: str = "add-k"
    smooth_k: float = 1.0
    smooth_min_order: int = 2
    use_brevity_penalty: bool = True
    effective_n_truncation: bool = True

    def __post_init__(self):
        if self.max_n < 1:
            raise ConfigError(f"max_n must be at least 1, got {self.max_n}")
        if self.smoothing not in SMOOTHING_NAMES:
            raise ConfigError(
                f"unknown smoothing {self.smoothing!r}; "
                f"expected one of {SMOOTHING_NAMES}"
            )
        if not 0 < self.smooth_k < math.inf:
            raise ConfigError(f"smooth_k must be positive and finite, got {self.smooth_k}")
        if self.smooth_min_order < 1:
            raise ConfigError(
                f"smooth_min_order must be at least 1, got {self.smooth_min_order}"
            )


@dataclass(frozen=True)
class ChrfConfig:
    """chrF scoring knobs.

    Attributes:
        char_n: highest character n-gram order.
        beta: recall weight in the F score.
        include_whitespace: keep whitespace characters instead of removing
            them before building character n-grams.
    """

    char_n: int = 6
    beta: float = 2.0
    include_whitespace: bool = False

    def __post_init__(self):
        if self.char_n < 1:
            raise ConfigError(f"char_n must be at least 1, got {self.char_n}")
        if not 0 < self.beta < math.inf:
            raise ConfigError(f"beta must be positive and finite, got {self.beta}")


# Sentence scoring smooths by default so a single missing 4-gram does not
# zero the score; corpus scoring pools counts instead, and stays unsmoothed
# so duplicating a corpus leaves its score exactly unchanged.
DEFAULT_SENTENCE_BLEU = BleuConfig()
DEFAULT_CORPUS_BLEU = BleuConfig(smoothing="none")
DEFAULT_CHRF = ChrfConfig()
# Each metric kind at its defaults: what a config-file block holding only
# its kind builds, and, each under its kind's name, a study's default metrics.
KIND_DEFAULTS = {"bleu": DEFAULT_SENTENCE_BLEU, "chrf": DEFAULT_CHRF}


def closest_ref_length(hyp_len: int, ref_lens: Iterable[int]) -> int:
    """Reference length closest to the hypothesis; ties go to the shorter."""
    return min(ref_lens, key=lambda r: (abs(r - hyp_len), r))


def _ngram_statistics(
    units: np.ndarray, lengths: Sequence[int], n_refs: int, max_n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact n-gram counts of a segment, for every order 1..max_n.

    units holds the references, then the hypotheses, back to back as small
    non-negative integer ids (tokens or code points); lengths[i] is sequence
    i's length.  Returns (overlaps, totals): overlaps[h, r, n-1] counts
    hypothesis h's n-grams also in reference r, and overlaps[h, n_refs, n-1]
    those in the most generous single reference (the BLEU clip);
    totals[i, n-1] counts the n-grams of sequence i.

    Per order, one np.unique densely relabels the window at every position
    and one np.bincount counts them per sequence into a (sequences + 1) x
    windows int64 matrix, whose extra row takes the windows that run past
    their sequence's end.  With G = max(len(units), max(units) + 1), that
    matrix and the minimum against it take at most 8 * G * max(sequences +
    1, hypotheses * (references + 1)) bytes: 0.5 MB for one reference and 15
    hypotheses of 130 characters.
    """
    n_seqs, size = len(lengths), len(units)
    overlaps = np.zeros((n_seqs - n_refs, n_refs + 1, max_n), np.int64)
    totals = np.maximum(0, np.subtract.outer(lengths, np.arange(max_n)))
    owner = np.repeat(np.arange(n_seqs), lengths)
    # units left in the owning sequence from each position onwards
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(size)
    width = int(units.max(initial=-1)) + 1  # bounds every unit id
    padded = np.concatenate([units, np.zeros(max_n - 1, units.dtype)])
    grams, n_grams = units, width
    for n in range(1, max_n + 1):
        if n > 1:
            # the window's id densely relabels (its prefix's id, its last unit)
            keys, grams = np.unique(
                grams * width + padded[n - 1 : n - 1 + size], return_inverse=True
            )
            n_grams = len(keys)
        rows = np.where(room >= n, owner, n_seqs) * n_grams + grams
        counts = np.bincount(rows, minlength=(n_seqs + 1) * n_grams)
        counts = counts.reshape(n_seqs + 1, n_grams)
        refs, hyps = counts[:n_refs], counts[n_refs:-1]
        profiles = np.concatenate([refs, refs.max(axis=0, keepdims=True)])
        overlaps[:, :, n - 1] = np.minimum(hyps[:, None], profiles).sum(axis=2)
    return overlaps, totals


def _statistics(config: BleuConfig | ChrfConfig, refs, hyps) -> np.ndarray:
    """One segment's sufficient statistics, one row per hypothesis; pooling sums them.

    BLEU: (clipped matches, total) per order of the token sequences, then
    (hypothesis length, closest reference length).  chrF: (true positives,
    hypothesis total, reference total) per order of the raw text's
    characters, against the reference with the best F, the first on ties.
    """
    n_refs = len(refs)
    if isinstance(config, BleuConfig):
        index: dict[str, int] = {}
        seqs = (*refs, *hyps)
        units = [index.setdefault(t, len(index)) for seq in seqs for t in seq]
        overlaps, totals = _ngram_statistics(
            np.array(units, np.int64), [len(seq) for seq in seqs], n_refs, config.max_n
        )
        ref_lens = [len(ref) for ref in refs]
        lengths = [(len(hyp), closest_ref_length(len(hyp), ref_lens)) for hyp in hyps]
        counts = np.stack([overlaps[:, -1], totals[n_refs:]], axis=-1)
        return np.concatenate([counts, np.array(lengths, np.int64)[:, None]], axis=1)
    texts = (*refs, *hyps)
    if not config.include_whitespace:
        texts = ["".join(text.split()) for text in texts]
    # surrogatepass: one unit per code point, a lone surrogate included
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), np.uint32)
    units = np.unique(codes, return_inverse=True)[1]
    overlaps, totals = _ngram_statistics(units, list(map(len, texts)), n_refs, config.char_n)
    hyp_totals, ref_totals = totals[n_refs:, None], totals[None, :n_refs]
    stats = np.stack(np.broadcast_arrays(overlaps[:, :-1], hyp_totals, ref_totals), -1)
    best = [
        max(range(n_refs), key=lambda r: _chrf_from_statistics(per_ref[r], config.beta))
        for per_ref in stats.tolist()
    ] if n_refs > 1 else 0
    return stats[np.arange(len(hyps)), best]


def _score(stats: list, config: BleuConfig | ChrfConfig) -> float:
    """Score from one segment's statistics or from statistics pooled over many."""
    if isinstance(config, ChrfConfig):
        return _chrf_from_statistics(stats, config.beta)
    *counts, (hyp_len, ref_len) = stats
    if hyp_len == 0:
        return 0.0
    if config.effective_n_truncation:
        counts = [(num, den) for num, den in counts if den > 0]
    score = _geometric_mean(_smoothed_precisions(counts, config))
    if config.use_brevity_penalty and hyp_len < ref_len:
        score *= math.exp(1.0 - ref_len / hyp_len)
    return score


def _pooled_score(config: BleuConfig | ChrfConfig, pairs) -> float:
    if not pairs:
        raise ValueError("at least one (hyp, refs) pair is required")
    if not all(refs for _, refs in pairs):
        raise ValueError("every hypothesis needs at least one reference")
    pooled = sum(_statistics(config, refs, [hyp])[0] for hyp, refs in pairs)
    return _score(pooled.tolist(), config)


def bleu_counts(
    hyp: Sequence[str], refs: Sequence[Sequence[str]], max_n: int
) -> list[tuple[int, int]]:
    """Clipped match and candidate counts per n-gram order 1..max_n.

    Each hypothesis n-gram is credited at most as many times as it appears
    in the most generous single reference.
    """
    stats = _statistics(BleuConfig(max_n=max_n), refs, [hyp])[0, :-1]
    return [tuple(row) for row in stats.tolist()]


def _smoothed_precisions(
    counts: Sequence[tuple[int, int]], config: BleuConfig
) -> list[float]:
    precisions = []
    zeros = 0
    for order, (num, den) in enumerate(counts, start=1):
        if den == 0:
            # No candidates of this order at all: precision is 0 no matter
            # what smoothing says.
            precisions.append(0.0)
            continue
        if config.smoothing == "add-k" and order >= config.smooth_min_order:
            precisions.append((num + config.smooth_k) / (den + config.smooth_k))
        elif num == 0 and config.smoothing == "exp-decay":
            zeros += 1
            precisions.append(1.0 / (2.0**zeros * den))
        else:
            precisions.append(num / den)
    return precisions


def _geometric_mean(precisions: Sequence[float]) -> float:
    if any(p == 0.0 for p in precisions):
        return 0.0
    if all(p == 1.0 for p in precisions):
        return 1.0
    return math.exp(math.fsum(math.log(p) for p in precisions) / len(precisions))


def sentence_bleu(
    hyp: Sequence[str],
    refs: Sequence[Sequence[str]],
    config: BleuConfig = DEFAULT_SENTENCE_BLEU,
) -> float:
    """BLEU for one tokenized hypothesis against tokenized references.

    Args:
        hyp: hypothesis tokens; an empty hypothesis scores 0.
        refs: one or more reference token sequences.
        config: scoring knobs.

    Returns:
        Score in [0, 1].
    """
    return corpus_bleu([(hyp, refs)], config)


def corpus_bleu(
    pairs: Sequence[tuple[Sequence[str], Sequence[Sequence[str]]]],
    config: BleuConfig = DEFAULT_CORPUS_BLEU,
) -> float:
    """BLEU over a corpus: counts pooled per order, lengths summed.

    Per-segment effective-order truncation does not apply here; short
    segments simply contribute nothing to the higher-order denominators.
    With effective_n_truncation on, an order with no candidate n-grams
    anywhere in the corpus is dropped from the geometric mean (the corpus
    analogue of truncation), so scoring a corpus against itself is exactly
    1.0 regardless of segment lengths; off, such an order zeroes the score.

    Args:
        pairs: (hypothesis tokens, reference token sequences) per segment.
        config: scoring knobs.
    """
    return _pooled_score(config, pairs)


def chrf_statistics(
    hyp_chars: str, ref_chars: str, char_n: int
) -> list[tuple[int, int, int]]:
    """(true positives, hypothesis total, reference total) per order."""
    config = ChrfConfig(char_n=char_n, include_whitespace=True)
    stats = _statistics(config, [ref_chars], [hyp_chars])[0]
    return [tuple(row) for row in stats.tolist()]


def _chrf_from_statistics(
    stats: Sequence[tuple[int, int, int]], beta: float
) -> float:
    precisions = []
    recalls = []
    for tp, hyp_total, ref_total in stats:
        if hyp_total == 0 and ref_total == 0:
            # Nothing of this order on either side; skip rather than dilute.
            continue
        precisions.append(tp / hyp_total if hyp_total else 0.0)
        recalls.append(tp / ref_total if ref_total else 0.0)
    if not precisions:
        return 0.0
    avg_p = math.fsum(precisions) / len(precisions)
    avg_r = math.fsum(recalls) / len(recalls)
    denom = beta * beta * avg_p + avg_r
    if denom == 0.0:
        return 0.0
    return (1.0 + beta * beta) * avg_p * avg_r / denom


def chrf(
    hyp: str, refs: Sequence[str], config: ChrfConfig = DEFAULT_CHRF
) -> float:
    """chrF for one hypothesis against the best-scoring of its references.

    Operates on raw text (whitespace removed by default); both sides empty
    yields 0.

    Returns:
        F_beta over macro-averaged character n-gram precision and recall,
        in [0, 1].
    """
    return corpus_chrf([(hyp, refs)], config)


def corpus_chrf(
    pairs: Sequence[tuple[str, Sequence[str]]],
    config: ChrfConfig = DEFAULT_CHRF,
) -> float:
    """chrF with statistics pooled over segments.

    Per segment, the reference with the best segment-level F contributes its
    statistics to the pool.
    """
    return _pooled_score(config, pairs)


def _format_num(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def smoothing_token(config: BleuConfig) -> str:
    """The smoothing as signatures and configs write it; see parse_smoothing."""
    if config.smoothing != "add-k":
        return config.smoothing
    order = f"@{config.smooth_min_order}" if config.smooth_min_order != 2 else ""
    return f"add-{_format_num(config.smooth_k)}{order}"


# A metric config has one external form: its kind and a value for each key
# of its kind here.  A config file's metric block is that form; a signature
# writes it "kind|field=value|...", each key as its field here and in this
# order, then the tokenization.  A BLEU form may also hold FORM_EXTRAS,
# add-k's k and first order, which override its smoothing token's.
FORM_FIELDS = {
    "bleu": {"max_n": "maxn", "smoothing": "smooth", "brevity_penalty": "bp",
             "truncation": "trunc"},
    "chrf": {"char_n": "maxn", "beta": "beta", "whitespace": "ws"},
}
FORM_EXTRAS = {"bleu": {"k": DEFAULT_SENTENCE_BLEU.smooth_k,
                        "min_order": DEFAULT_SENTENCE_BLEU.smooth_min_order},
               "chrf": {}}


def metric_form(config: BleuConfig | ChrfConfig) -> dict:
    """config's external form (see FORM_FIELDS), as a config file echoes it."""
    if isinstance(config, BleuConfig):
        kind, values = "bleu", (config.max_n, smoothing_token(config),
                                config.use_brevity_penalty, config.effective_n_truncation)
    elif isinstance(config, ChrfConfig):
        kind, values = "chrf", (config.char_n, config.beta, config.include_whitespace)
    else:
        raise ConfigError(f"unsupported config type {type(config).__name__}")
    return {"kind": kind, **dict(zip(FORM_FIELDS[kind], values))}


def metric_from_form(form: Mapping) -> BleuConfig | ChrfConfig:
    """The config of a form that holds every key of its kind; a value the
    config refuses is a ConfigError."""
    values = [form[key] for key in FORM_FIELDS[form["kind"]]]
    if form["kind"] == "chrf":
        return ChrfConfig(*values)
    max_n, token, brevity_penalty, truncation = values
    smoothing, k, min_order = parse_smoothing(token)
    return BleuConfig(max_n, smoothing, form.get("k", k), form.get("min_order", min_order),
                      brevity_penalty, truncation)


def config_signature(
    config: BleuConfig | ChrfConfig, scheme: TokenizationScheme
) -> str:
    """Canonical string identifying every parameter that affects scores:
    config's form under FORM_FIELDS' names, then the tokenization.

    Two runs with equal signatures are exactly comparable; any differing
    knob shows up as a differing signature.
    """
    form = metric_form(config)
    kind = form.pop("kind")
    values = [*((name, form[key]) for key, name in FORM_FIELDS[kind].items()),
              ("tok", scheme.name), ("lc", scheme.lowercase)]
    return "|".join([kind, *(f"{name}={_field_text(v)}" for name, v in values)])


def _field_text(value) -> str:
    """A form value as a signature writes it."""
    if type(value) is bool:
        return "yes" if value else "no"
    return _format_num(value) if type(value) is float else str(value)


def _field_value(text: str, like, name: str):
    """A signature field's text as a value of like's type."""
    if type(like) is not bool:
        return type(like)(text)
    if text not in ("yes", "no"):
        raise ConfigError(f"signature field {name!r} must be yes/no, got {text!r}")
    return text == "yes"


def parse_smoothing(token: str) -> tuple[str, float, int]:
    """Parse a smoothing token ("none", "add-1", "add-0.5@1", "exp-decay").

    Returns:
        (smoothing, smooth_k, smooth_min_order) suitable for BleuConfig.

    Raises:
        ConfigError: unrecognized token.
    """
    if token in ("none", "exp-decay"):
        return token, 1.0, 2
    if token.startswith("add-"):
        spec, _, min_order = token[4:].partition("@")
        try:
            return "add-k", float(spec), int(min_order) if min_order else 2
        except ValueError:
            pass
    raise ConfigError(f"unknown smoothing token {token!r}")


def parse_signature(
    signature: str,
) -> tuple[BleuConfig | ChrfConfig, TokenizationScheme]:
    """Inverse of config_signature.

    Raises:
        ConfigError: malformed signature.
    """
    head, _, rest = signature.partition("|")
    if head not in FORM_FIELDS:
        raise ConfigError(f"unknown signature head {head!r}")
    fields = {}
    for part in rest.split("|") if rest else []:
        key, sep, value = part.partition("=")
        if not sep or key in fields:
            raise ConfigError(f"malformed signature {signature!r}")
        fields[key] = value
    try:
        scheme = TokenizationScheme(fields.pop("tok"), _field_value(fields.pop("lc"), False, "lc"))
        like = metric_form(KIND_DEFAULTS[head])
        config = metric_from_form({"kind": head, **{
            key: _field_value(fields.pop(name), like[key], name)
            for key, name in FORM_FIELDS[head].items()
        }})
    except KeyError as exc:
        raise ConfigError(f"signature {signature!r} lacks field {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"malformed signature {signature!r}: {exc}") from None
    if fields:
        raise ConfigError(
            f"signature {signature!r} has unknown field(s) {sorted(fields)}"
        )
    return config, scheme


def _index(have, want) -> np.ndarray:
    """Each value of want's place on the sorted, distinct axis have, or -1
    where have lacks it."""
    if isinstance(have, tuple):  # system ids
        index = dict(zip(have, range(len(have))))
        return np.array([index.get(value, -1) for value in want], np.int64)
    want = np.asarray(want, np.int64)
    at = np.searchsorted(have, want)
    hit = at < len(have)
    hit[hit] = have[at[hit]] == want[hit]
    return np.where(hit, at, -1)


def _keys(axes: tuple, at: tuple) -> Iterator:
    """The keys of the cells at indexes on axes, one index array per axis."""
    systems = map(axes[0].__getitem__, at[0].tolist())
    return zip(systems, axes[1][at[1]].tolist()) if len(at) == 2 else systems


@dataclass(frozen=True, eq=False)
class _Scores(Mapping):
    """A read-only map from key to score, held as a float64 grid on axes:
    system ids (a tuple of str), then for segment scores segment ids (int64),
    each sorted and distinct.  NaN means no score.

    rank, when not None, is each cell's place in the order the scores were
    given (file order for a loaded file); None means key order.  Only
    merge_tables reads it, to name the duplicate given first.  Equal maps
    may sit on different axes, so == compares keys and scores only.
    """

    axes: tuple
    score: np.ndarray
    rank: np.ndarray | None = None

    def __post_init__(self):
        score = np.asarray(self.score, np.float64)
        score.flags.writeable = False  # merged tables share their inputs' grids
        object.__setattr__(self, "score", score)

    def __len__(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.score)))

    def __iter__(self) -> Iterator:
        return _keys(self.axes, np.nonzero(~np.isnan(self.score)))

    def __getitem__(self, key) -> float:
        parts = (key,) if len(self.axes) == 1 else key
        try:
            at = tuple(bisect_left(axis, k) for axis, k in zip(self.axes, parts, strict=True))
            found = all(axis[i] == k for axis, i, k in zip(self.axes, at, parts))
            value = float(self.score[at])
        except (TypeError, ValueError, IndexError, OverflowError):
            raise KeyError(key) from None
        if not found or math.isnan(value):
            raise KeyError(key)
        return value

    def on(self, axes: tuple, cells: tuple | None = None, grid=None, fill=np.nan) -> np.ndarray:
        """grid, by default the scores, gathered from this record's axes onto
        axes: the value at each key of axes, or with cells (one index array
        per axis) at each cell they index, and fill where this record's
        axes lack the key."""
        grid = self.score if grid is None else grid
        picks = [_index(have, want) for have, want in zip(self.axes, axes)]
        # index -1 reads the fill placed after the last row and column
        padded = np.full([n + 1 for n in grid.shape], fill, grid.dtype)
        padded[tuple(map(slice, grid.shape))] = grid
        if cells is None:
            return padded[np.ix_(*picks)]
        return padded[tuple(pick[cell] for pick, cell in zip(picks, cells))]

    def _given(self) -> np.ndarray:
        """Each cell's place in the order the scores were given."""
        if self.rank is None:
            return np.arange(self.score.size).reshape(self.score.shape)
        return self.rank


class SegmentScores(_Scores):
    """(system_id, segment_id) -> score: score[i, j] is system axes[0][i]'s
    score on segment axes[1][j], 8 bytes a cell.  MetricScores builds
    one from a mapping."""


class SystemScores(_Scores):
    """system_id -> score: score[i] is system axes[0][i]'s score.  MetricScores
    builds one from a mapping."""


def _rank(score: np.ndarray, rank: np.ndarray) -> np.ndarray | None:
    """rank, or None when the filled cells were given in key order."""
    given = rank[~np.isnan(score)]
    return None if (given[1:] > given[:-1]).all() else rank


def _codes(column: Sequence[str]) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct values of column, sorted, and each row's index into them."""
    values = tuple(sorted(set(column)))
    index = {value: i for i, value in enumerate(values)}
    return values, np.fromiter(map(index.__getitem__, column), np.int64, len(column))


@dataclass(frozen=True, eq=False)
class SparseScores:
    """Scores at distinct keys, held as the cells of a grid on axes (as a
    score record holds them) without the grid itself, so a record costs its
    number of keys however sparse they are.  score[k] is the score at the
    cell whose index on each axis is cells[axis][k], and count[k] the number
    of values it averages; cells are in key order, and an axis may hold ids
    no cell uses.  DA is held this way (judgments.segment_da and system_da
    build it), and correlation.aligned reads every metric at its cells with
    record.on(da.axes, da.cells), NaN where the metric has none.
    """

    axes: tuple
    cells: tuple
    score: np.ndarray
    count: np.ndarray

    def __len__(self) -> int:
        return len(self.score)

    def keys(self, pick=slice(None)) -> list:
        """The keys of the cells pick (a mask or indexes) selects, in order."""
        return list(_keys(self.axes, tuple(cell[pick] for cell in self.cells)))


def _cell_rows(axes: tuple, cells: tuple, *columns, lead: tuple = ()) -> Iterator[list[tuple]]:
    """(*lead, *key, *values) rows of the cells on axes (one index array per
    axis) in the order given, at most CHUNK_ROWS at a time: each column is an
    array of one value per cell, and a float NaN is written as None."""
    for start in range(0, len(cells[0]), CHUNK_ROWS):
        at = slice(start, start + CHUNK_ROWS)
        systems = map(axes[0].__getitem__, cells[0][at].tolist())
        keys = [axis[cell[at]].tolist() for axis, cell in zip(axes[1:], cells[1:])]
        values = [_plain(column[at]) for column in columns]
        yield list(zip(*map(repeat, lead), systems, *keys, *values))


def _plain(column: np.ndarray) -> list:
    """column's values as Python objects, a float NaN as None."""
    values = column.tolist()
    if column.dtype.kind == "f" and np.isnan(column).any():
        return [None if v != v else v for v in values]
    return values


def _first_bad_segment_id(values) -> int | None:
    """The first index of values whose value is not an int in [0,
    MAX_SEGMENT_ID], checked before any cast, which would turn 2.0 and True
    into ints: an integer array at once, other sequences item by item."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        bad = np.flatnonzero((values < 0) | (values > MAX_SEGMENT_ID))
        return int(bad[0]) if len(bad) else None
    return next((
        i for i, v in enumerate(values)
        if type(v) is not int or not 0 <= v <= MAX_SEGMENT_ID
    ), None)


def _sparse(keys: list, values: Iterable[float], level: str) -> tuple[tuple, tuple, np.ndarray]:
    """The axes of keys, (system_id, segment_id) pairs at level "segment"
    and system ids at "system", each key's cell on them (one index array
    per axis), and the scores values gives the keys.

    Raises:
        ValueError: a segment id that is not an int in [0, MAX_SEGMENT_ID],
            or a score that is not finite, since NaN means no score.
    """
    if level == SEGMENT:
        segment_ids = [segment_id for _, segment_id in keys]
        bad = _first_bad_segment_id(segment_ids)
        if bad is not None:
            raise ValueError(f"segment id of {keys[bad]!r} is not an int in "
                             f"[0, {MAX_SEGMENT_ID}]")
        systems, row = _codes([system_id for system_id, _ in keys])
        segment_id = np.fromiter(segment_ids, np.int64, len(keys))
        segments, column = np.unique(segment_id, return_inverse=True)
        axes, cells = (systems, segments), (row, column.ravel())
    else:
        systems, row = _codes(keys)
        axes, cells = (systems,), (row,)
    score = np.fromiter(values, np.float64, len(keys))
    if not np.isfinite(score).all():
        raise ValueError("every score must be finite")
    return axes, cells, score


@dataclass(frozen=True)
class MetricScores:
    """One metric's scores at segment and system granularity.

    Either level may be given as a mapping, (system_id, segment_id) ->
    score or system_id -> score.  Its grid then has the mapping's sorted
    distinct systems and, for segment scores, its sorted distinct segment
    ids, so a grid is as wide as the segments it scores.

    Attributes:
        provenance: the config signature (built-in metrics and reloaded
            dumps) or the source file path (other external scores).
        segment: (system_id, segment_id) -> score.
        system: system_id -> score.

    Raises:
        ValueError: a mapping with a score that is not finite, or a segment
            id that is not an int in [0, MAX_SEGMENT_ID].
    """

    provenance: str
    segment: SegmentScores = field(default_factory=dict)
    system: SystemScores = field(default_factory=dict)

    def __post_init__(self):
        for level, kind in ((SEGMENT, SegmentScores), (SYSTEM, SystemScores)):
            scores = getattr(self, level)
            if not isinstance(scores, kind):
                axes, cells, given = _sparse(list(scores), scores.values(), level)
                score = np.full(tuple(map(len, axes)), np.nan)
                score[cells] = given
                rank = np.full(score.shape, -1, np.int64)
                rank[cells] = np.arange(len(given))
                object.__setattr__(self, level, kind(axes, score, _rank(score, rank)))


class MetricScoreTable(dict[str, MetricScores]):
    """Scores from every metric in play: metric_id -> its MetricScores.

    _row_chunks(level) is the one flat view, read by rows(), the TSV dump
    and the JSON report.
    """

    def __missing__(self, metric_id: str) -> MetricScores:
        raise DataError(f"unknown metric {metric_id!r}; table has {self.metric_ids()}")

    def metric_ids(self) -> list[str]:
        return sorted(self)

    def rows(self, level: str) -> list[tuple]:
        """Sorted (metric_id, system_id, segment_id, score) rows when level
        is "segment", (metric_id, system_id, score) rows when "system"."""
        return [row for rows in self._row_chunks(level) for row in rows]

    def _row_chunks(self, level: str) -> Iterator[list[tuple]]:
        """rows() in lists of at most CHUNK_ROWS rows, read from the grids."""
        for metric_id in self.metric_ids():
            scores = getattr(self[metric_id], level)
            filled = np.nonzero(~np.isnan(scores.score))
            yield from _cell_rows(scores.axes, filled, scores.score[filled], lead=(metric_id,))


def _merged(have: _Scores, new: _Scores) -> tuple[_Scores, tuple | None]:
    """Both records on the union of their axes, and of the cells filled in
    both, the key of the one new was given first, or None."""
    axes = (tuple(sorted({*have.axes[0], *new.axes[0]})),
            *map(np.union1d, have.axes[1:], new.axes[1:]))
    a, b = have.on(axes), new.on(axes)
    given_a = have.on(axes, grid=have._given(), fill=-1)
    # the first input's cells come first in the merged order
    given_b = new.on(axes, grid=new._given(), fill=-1) + int(given_a.max(initial=-1)) + 1
    empty = np.isnan(a)
    score = np.where(empty, b, a)
    merged = type(have)(axes, score, _rank(score, np.where(empty, given_b, given_a)))
    both = ~empty & ~np.isnan(b)
    if not both.any():
        return merged, None
    at = np.flatnonzero(both)
    cell = np.unravel_index(at[given_b.ravel()[at].argmin()], score.shape)
    return merged, (axes[0][cell[0]], *(int(axis[i]) for axis, i in zip(axes[1:], cell[1:])))


def merge_tables(*tables: MetricScoreTable) -> MetricScoreTable:
    """Combine score tables metric by metric, rejecting any duplicate entry.

    A metric in one table only is shared, not copied; one split across
    tables is placed on the union of the tables' axes.  Of several
    duplicates, the one the later table was given first is named: for a
    loaded file, the first in file order.

    Raises:
        DataError: two tables score the same (metric, system, segment) or
            (metric, system), or carry the same metric with different
            provenance.
    """
    merged = MetricScoreTable()
    for table in tables:
        for metric_id, scores in table.items():
            into = merged.get(metric_id)
            if into is None:
                merged[metric_id] = scores
                continue
            if into.provenance != scores.provenance:
                raise DataError(
                    f"metric {metric_id!r} appears with two provenances: "
                    f"{into.provenance!r} and {scores.provenance!r}"
                )
            segment, key = _merged(into.segment, scores.segment)
            if key is not None:
                raise DataError(f"duplicate segment score for {(metric_id, *key)}")
            system, key = _merged(into.system, scores.system)
            if key is not None:
                raise DataError(f"duplicate system score for {(metric_id, *key)}")
            merged[metric_id] = MetricScores(into.provenance, segment, system)
    return merged


def _units(config, scheme: TokenizationScheme, texts: Sequence[str]) -> list:
    """What a metric counts n-grams of: tokens for BLEU, raw text for chrF."""
    if isinstance(config, BleuConfig):
        return [tokenize(text, scheme) for text in texts]
    return [text.lower() for text in texts] if scheme.lowercase else list(texts)


def score_systems(
    corpus: EvaluationCorpus,
    metrics: Mapping[str, BleuConfig | ChrfConfig],
    scheme: TokenizationScheme = TokenizationScheme(),
    aggregate: str = "mean",
) -> MetricScoreTable:
    """Score every system of a corpus with each configured built-in metric.

    Per metric and segment, the sufficient statistics of all systems are
    built at once; sentence scores come from them, corpus aggregates pool them.

    Args:
        corpus: aligned outputs and references.
        metrics: metric_id -> BleuConfig or ChrfConfig.
        scheme: tokenization for BLEU; only its lowercase flag affects chrF.
        aggregate: "mean" averages sentence scores into the system score;
            "corpus" pools statistics (corpus BLEU / pooled chrF).

    Returns:
        A table with, per metric, one segment score per (system, segment)
        and one system score per system, provenance set to the metric's
        config signature.
    """
    if aggregate not in AGGREGATE_MODES:
        raise ConfigError(
            f"unknown aggregate {aggregate!r}; expected one of {AGGREGATE_MODES}"
        )
    table = MetricScoreTable()
    system_ids = tuple(corpus.system_ids())
    outputs = [corpus.outputs[system_id].hypotheses for system_id in system_ids]
    n_segments = len(corpus.test_set)
    for metric_id in sorted(metrics):
        config = metrics[metric_id]
        # stats[segment, system] holds one hypothesis's statistics
        units = partial(_units, config, scheme)
        stats = np.stack([
            _statistics(config, units(seg.references), units(hyps))
            for seg, hyps in zip(corpus.test_set.segments, zip(*outputs))
        ])
        segment = np.empty((len(system_ids), n_segments))
        system = np.empty(len(system_ids))
        for s in range(len(system_ids)):
            scores = [_score(row, config) for row in stats[:, s].tolist()]
            segment[s] = scores
            system[s] = (
                _mean(scores) if aggregate == "mean"
                else _score(stats[:, s].sum(axis=0).tolist(), config)
            )
        table[metric_id] = MetricScores(
            config_signature(config, scheme),
            SegmentScores((system_ids, np.arange(n_segments)), segment),
            SystemScores((system_ids,), system),
        )
    return table


def load_external_metric_scores(
    path, corpus: EvaluationCorpus
) -> MetricScoreTable:
    """Read externally computed scores from a TSV file.

    Rows are either segment level (metric_id, system_id, segment_id, score)
    or system level (metric_id, system_id, score); the two may be mixed in
    one file.  A '# signature: <metric_id>\t<provenance>' line, as
    dump_scores writes, sets that metric's provenance; otherwise it is the
    file path.  Other '#' lines and blank lines are skipped.  For any
    (metric, system) with a segment score for every corpus segment and no
    explicit system score, the mean of the segment scores is filled in.

    Each metric's grids, on the corpus's sorted systems and its segments,
    are filled as lines are read, so the first bad line is reported: a row
    error, or a row whose cell an earlier row filled.

    Raises:
        DataError: a file that is not UTF-8, malformed rows, non-finite
            scores, unknown systems or segments, or duplicate entries.
    """
    systems = tuple(corpus.system_ids())
    row_of = {system_id: i for i, system_id in enumerate(systems)}
    n_segments = len(corpus.test_set)
    # metric_id -> segment scores, their lines, system scores, their lines
    grids: dict[str, tuple[array, array, array, array]] = {}
    signatures: dict[str, str] = {}

    def error(message: str) -> DataError:
        return DataError(f"{path} line {lineno}: {message}")

    lineno = 0
    with utf8_input(path), open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line.strip() or line.lstrip().startswith("#"):
                if line.startswith(SIGNATURE_PREFIX) and "\t" in line:
                    metric_id, signature = line[len(SIGNATURE_PREFIX):].split("\t", 1)
                    signatures[metric_id] = signature
                continue
            cols = line.split("\t")
            if len(cols) not in (3, 4):
                raise error(f"expected 3 or 4 tab-separated columns, got {len(cols)}")
            metric_id, system_id = cols[0], cols[1]
            row = row_of.get(system_id)
            if row is None:
                raise error(f"unknown system {system_id!r}")
            try:
                score = float(cols[-1])
            except ValueError:
                raise error(f"unparseable score {cols[-1]!r}") from None
            if not math.isfinite(score):
                raise error(f"non-finite score {cols[-1]!r}")
            grid = grids.get(metric_id)
            if grid is None:
                cells = len(systems) * n_segments
                grid = grids[metric_id] = (
                    array("d", [math.nan]) * cells, array("q", [0]) * cells,
                    array("d", [math.nan]) * len(systems), array("q", [0]) * len(systems),
                )
            if len(cols) == 4:
                try:
                    segment_id = int(cols[2])
                except ValueError:
                    raise error(f"unparseable segment id {cols[2]!r}") from None
                if not 0 <= segment_id < n_segments:
                    raise error(f"segment {segment_id} outside 0..{n_segments - 1}")
                scores, lines, cell = grid[0], grid[1], row * n_segments + segment_id
            else:
                scores, lines, cell = grid[2], grid[3], row
            if scores[cell] == scores[cell]:  # not NaN: an earlier row filled it
                key = (metric_id, system_id, segment_id) if len(cols) == 4 else (metric_id, system_id)
                raise error(f"duplicate entry for {key}")
            scores[cell] = score
            lines[cell] = lineno
    table = MetricScoreTable()
    for metric_id, (segment, segment_lines, system, system_lines) in grids.items():
        segment = np.frombuffer(segment).reshape(len(systems), n_segments)
        system, system_lines = np.frombuffer(system), np.frombuffer(system_lines, np.int64)
        # filled-in system scores come after every line, in system order
        for s in np.flatnonzero(np.isnan(system) & ~np.isnan(segment).any(axis=1)).tolist():
            system[s] = _mean(segment[s].tolist())
            system_lines[s] = lineno + 1 + s
        segment_lines = np.frombuffer(segment_lines, np.int64).reshape(segment.shape)
        table[metric_id] = MetricScores(
            signatures.get(metric_id, str(path)),
            SegmentScores((systems, np.arange(n_segments)), segment, _rank(segment, segment_lines)),
            SystemScores((systems,), system, _rank(system, system_lines)),
        )
    return table


def dump_scores(table: MetricScoreTable) -> str:
    """Serialize a score table in the external-scores TSV format.

    Provenance appears as '# signature:' comment lines, so a dump re-read
    by load_external_metric_scores gives back the same table.
    """
    return "".join(_score_chunks(table))


def _score_chunks(table: MetricScoreTable) -> Iterator[str]:
    """dump_scores's text in chunks of at most CHUNK_ROWS lines, each
    sliced from one metric's columns."""
    yield "".join(
        f"{SIGNATURE_PREFIX}{m}\t{table[m].provenance}\n" for m in table.metric_ids()
    )
    for level in ("segment", "system"):
        for rows in table._row_chunks(level):
            yield "".join("\t".join(map(str, row)) + "\n" for row in rows)
