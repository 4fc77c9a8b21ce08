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
"""

from __future__ import annotations

import math
import re
import sys
import unicodedata
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterable, Mapping, Sequence

import numpy as np

from .corpus import EvaluationCorpus
from .errors import ConfigError, DataError

TOKENIZER_NAMES = ("whitespace", "intl", "char")
SMOOTHING_NAMES = ("none", "add-k", "exp-decay")
AGGREGATE_MODES = ("mean", "corpus")
SIGNATURE_PREFIX = "# signature: "


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


def _escape_cp(cp: int) -> str:
    return f"\\U{cp:08x}" if cp > 0xFFFF else f"\\u{cp:04x}"


@lru_cache(maxsize=None)
def _category_class(prefix: str, negate: bool = False) -> str:
    """Regex character class for Unicode general categories, e.g. all of P."""
    cps = [
        cp
        for cp in range(sys.maxunicode + 1)
        if unicodedata.category(chr(cp)).startswith(prefix)
    ]
    parts = []
    start = prev = cps[0]
    for cp in cps[1:]:
        if cp == prev + 1:
            prev = cp
            continue
        parts.append((start, prev))
        start = prev = cp
    parts.append((start, prev))
    body = "".join(
        _escape_cp(a) if a == b else f"{_escape_cp(a)}-{_escape_cp(b)}"
        for a, b in parts
    )
    return ("[^" if negate else "[") + body + "]"


@lru_cache(maxsize=1)
def _intl_rules():
    punct = _category_class("P")
    sym = _category_class("S")
    not_num = _category_class("N", True)
    return (
        (re.compile(f"({not_num})({punct})"), r"\1 \2 "),
        (re.compile(f"({punct})({not_num})"), r" \1 \2"),
        (re.compile(f"({sym})"), r" \1 "),
    )


def _tokenize_intl(text: str) -> list[str]:
    for pattern, repl in _intl_rules():
        text = pattern.sub(repl, text)
    return text.split()


def _tokenize_char(text: str) -> list[str]:
    # Grapheme approximation: combining marks ride on the preceding base
    # character; full UAX #29 segmentation is out of scope.
    tokens: list[str] = []
    attached = False
    for ch in text:
        if ch.isspace():
            attached = False
            continue
        if attached and unicodedata.category(ch).startswith("M"):
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


def closest_ref_length(hyp_len: int, ref_lens: Iterable[int]) -> int:
    """Reference length closest to the hypothesis; ties go to the shorter."""
    return min(ref_lens, key=lambda r: (abs(r - hyp_len), r))


def _ngram_statistics(seqs, n_refs: int, max_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact n-gram counts of a segment, for every order 1..max_n.

    seqs holds the references, then the hypotheses, as sequences of integer
    unit ids (tokens or code points).  Returns (overlaps, totals):
    overlaps[h, r, n-1] counts hypothesis h's n-grams also in reference r,
    and overlaps[h, n_refs, n-1] those in the most generous single
    reference (the BLEU clip); totals[i, n-1] counts the n-grams of seqs[i].
    """
    overlaps = np.zeros((len(seqs) - n_refs, n_refs + 1, max_n), np.int64)
    lengths = [len(seq) for seq in seqs]
    totals = np.maximum(0, np.subtract.outer(lengths, np.arange(max_n)))
    owner = np.repeat(np.arange(len(seqs)), lengths)
    # units left in the owning sequence from each position onwards
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(len(owner))
    _, units = np.unique(np.concatenate(seqs).astype(np.int64), return_inverse=True)
    width = len(units) + 1  # bounds every unit and n-gram id in the segment
    pos = np.arange(len(owner))
    grams = units
    for n in range(1, max_n + 1):
        if n > 1:
            # the n-gram id densely relabels (its prefix's id, its last unit)
            keep = room[pos] >= n
            pos = pos[keep]
            _, grams = np.unique(
                grams[keep] * width + units[pos + n - 1], return_inverse=True
            )
        keys, counts = np.unique(owner[pos] * width + grams, return_counts=True)
        who, gram = np.divmod(keys, width)
        k = np.searchsorted(who, n_refs)  # the references' entries come first
        profiles = np.zeros((n_refs + 1, width), np.int64)
        profiles[who[:k], gram[:k]] = counts[:k]
        profiles[n_refs] = profiles[:n_refs].max(axis=0)
        for r, profile in enumerate(profiles):
            matched = np.minimum(counts[k:], profile[gram[k:]])
            overlaps[:, r, n - 1] = np.bincount(who[k:] - n_refs, matched, len(overlaps))
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
        seqs = [[index.setdefault(t, len(index)) for t in seq] for seq in (*refs, *hyps)]
        overlaps, totals = _ngram_statistics(seqs, n_refs, config.max_n)
        ref_lens = [len(ref) for ref in refs]
        lengths = [(len(hyp), closest_ref_length(len(hyp), ref_lens)) for hyp in hyps]
        counts = np.stack([overlaps[:, -1], totals[n_refs:]], axis=-1)
        return np.concatenate([counts, np.array(lengths, np.int64)[:, None]], axis=1)
    if not config.include_whitespace:
        refs, hyps = (["".join(text.split()) for text in texts] for texts in (refs, hyps))
    # surrogatepass: one unit per code point, a lone surrogate included
    seqs = [
        np.frombuffer(text.encode("utf-32-le", "surrogatepass"), np.uint32)
        for text in (*refs, *hyps)
    ]
    overlaps, totals = _ngram_statistics(seqs, n_refs, config.char_n)
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


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _format_num(value: float) -> str:
    return str(int(value)) if value == int(value) else repr(value)


def smoothing_token(config: BleuConfig) -> str:
    """The smoothing as signatures and configs write it; see parse_smoothing."""
    if config.smoothing != "add-k":
        return config.smoothing
    order = f"@{config.smooth_min_order}" if config.smooth_min_order != 2 else ""
    return f"add-{_format_num(config.smooth_k)}{order}"


def config_signature(
    config: BleuConfig | ChrfConfig, scheme: TokenizationScheme
) -> str:
    """Canonical string identifying every parameter that affects scores.

    Two runs with equal signatures are exactly comparable; any differing
    knob shows up as a differing signature.
    """
    if isinstance(config, BleuConfig):
        return (
            f"bleu|maxn={config.max_n}|smooth={smoothing_token(config)}"
            f"|bp={_yn(config.use_brevity_penalty)}"
            f"|trunc={_yn(config.effective_n_truncation)}"
            f"|tok={scheme.name}|lc={_yn(scheme.lowercase)}"
        )
    if isinstance(config, ChrfConfig):
        return (
            f"chrf|maxn={config.char_n}|beta={_format_num(config.beta)}"
            f"|ws={_yn(config.include_whitespace)}"
            f"|tok={scheme.name}|lc={_yn(scheme.lowercase)}"
        )
    raise ConfigError(f"unsupported config type {type(config).__name__}")


def _parse_yn(value: str, key: str) -> bool:
    if value == "yes":
        return True
    if value == "no":
        return False
    raise ConfigError(f"signature field {key!r} must be yes/no, got {value!r}")


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
    fields = {}
    for part in rest.split("|") if rest else []:
        key, sep, value = part.partition("=")
        if not sep or key in fields:
            raise ConfigError(f"malformed signature {signature!r}")
        fields[key] = value
    try:
        scheme = TokenizationScheme(fields.pop("tok"), _parse_yn(fields.pop("lc"), "lc"))
        if head == "bleu":
            smoothing, smooth_k, min_order = parse_smoothing(fields.pop("smooth"))
            config: BleuConfig | ChrfConfig = BleuConfig(
                max_n=int(fields.pop("maxn")),
                smoothing=smoothing,
                smooth_k=smooth_k,
                smooth_min_order=min_order,
                use_brevity_penalty=_parse_yn(fields.pop("bp"), "bp"),
                effective_n_truncation=_parse_yn(fields.pop("trunc"), "trunc"),
            )
        elif head == "chrf":
            config = ChrfConfig(
                char_n=int(fields.pop("maxn")),
                beta=float(fields.pop("beta")),
                include_whitespace=_parse_yn(fields.pop("ws"), "ws"),
            )
        else:
            raise ConfigError(f"unknown signature head {head!r}")
    except KeyError as exc:
        raise ConfigError(f"signature {signature!r} lacks field {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"malformed signature {signature!r}: {exc}") from None
    if fields:
        raise ConfigError(
            f"signature {signature!r} has unknown field(s) {sorted(fields)}"
        )
    return config, scheme


@dataclass
class MetricScoreTable:
    """Scores from every metric in play, at segment and system granularity.

    Attributes:
        segment_scores: (metric_id, system_id, segment_id) -> score.
        system_scores: (metric_id, system_id) -> score.
        provenance: metric_id -> config signature (built-in metrics and
            reloaded dumps) or source file path (other external scores).
    """

    segment_scores: dict[tuple[str, str, int], float] = field(default_factory=dict)
    system_scores: dict[tuple[str, str], float] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)

    def metric_ids(self) -> list[str]:
        return sorted(self.provenance)

    def segment_map(self, metric_id: str) -> dict[tuple[str, int], float]:
        """(system_id, segment_id) -> score for one metric."""
        self._known(metric_id)
        return {
            (system_id, segment_id): score
            for (m, system_id, segment_id), score in self.segment_scores.items()
            if m == metric_id
        }

    def system_map(self, metric_id: str) -> dict[str, float]:
        """system_id -> score for one metric."""
        self._known(metric_id)
        return {
            system_id: score
            for (m, system_id), score in self.system_scores.items()
            if m == metric_id
        }

    def _known(self, metric_id: str) -> None:
        if metric_id not in self.provenance:
            raise DataError(
                f"unknown metric {metric_id!r}; table has {self.metric_ids()}"
            )


def merge_tables(*tables: MetricScoreTable) -> MetricScoreTable:
    """Combine score tables, rejecting any duplicate entry.

    Raises:
        DataError: two tables score the same (metric, system, segment) or
            (metric, system), or carry the same metric with different
            provenance.
    """
    merged = MetricScoreTable()
    for table in tables:
        for metric_id, prov in table.provenance.items():
            if merged.provenance.get(metric_id, prov) != prov:
                raise DataError(
                    f"metric {metric_id!r} appears with two provenances: "
                    f"{merged.provenance[metric_id]!r} and {prov!r}"
                )
            merged.provenance[metric_id] = prov
        for key, score in table.segment_scores.items():
            if key in merged.segment_scores:
                raise DataError(f"duplicate segment score for {key}")
            merged.segment_scores[key] = score
        for skey, score in table.system_scores.items():
            if skey in merged.system_scores:
                raise DataError(f"duplicate system score for {skey}")
            merged.system_scores[skey] = score
    return merged


def _mean(values: Sequence[float]) -> float:
    if all(v == values[0] for v in values):
        return values[0]
    return math.fsum(values) / len(values)


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
        A table with one segment score per (metric, system, segment) and one
        system score per (metric, system), provenance set to each metric's
        config signature.
    """
    if aggregate not in AGGREGATE_MODES:
        raise ConfigError(
            f"unknown aggregate {aggregate!r}; expected one of {AGGREGATE_MODES}"
        )
    table = MetricScoreTable()
    system_ids = corpus.system_ids()
    outputs = [corpus.outputs[system_id].hypotheses for system_id in system_ids]
    for metric_id in sorted(metrics):
        config = metrics[metric_id]
        table.provenance[metric_id] = config_signature(config, scheme)
        # stats[segment, system] holds one hypothesis's statistics
        units = partial(_units, config, scheme)
        stats = np.stack([
            _statistics(config, units(seg.references), units(hyps))
            for seg, hyps in zip(corpus.test_set.segments, zip(*outputs))
        ])
        for s, system_id in enumerate(system_ids):
            scores = [_score(row, config) for row in stats[:, s].tolist()]
            for segment_id, score in enumerate(scores):
                table.segment_scores[(metric_id, system_id, segment_id)] = score
            table.system_scores[(metric_id, system_id)] = (
                _mean(scores) if aggregate == "mean"
                else _score(stats[:, s].sum(axis=0).tolist(), config)
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

    Raises:
        DataError: malformed rows, non-finite scores, unknown systems or
            segments, or duplicate entries.
    """
    table = MetricScoreTable()
    signatures: dict[str, str] = {}
    n_segments = len(corpus.test_set)

    def error(message: str) -> DataError:
        return DataError(f"{path} line {lineno}: {message}")

    with open(path, encoding="utf-8") as fh:
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
            if system_id not in corpus.outputs:
                raise error(f"unknown system {system_id!r}")
            try:
                score = float(cols[-1])
            except ValueError:
                raise error(f"unparseable score {cols[-1]!r}") from None
            if not math.isfinite(score):
                raise error(f"non-finite score {cols[-1]!r}")
            if len(cols) == 4:
                try:
                    segment_id = int(cols[2])
                except ValueError:
                    raise error(f"unparseable segment id {cols[2]!r}") from None
                if not 0 <= segment_id < n_segments:
                    raise error(f"segment {segment_id} outside 0..{n_segments - 1}")
                key, scores = (metric_id, system_id, segment_id), table.segment_scores
            else:
                key, scores = (metric_id, system_id), table.system_scores
            if key in scores:
                raise error(f"duplicate entry for {key}")
            scores[key] = score
            table.provenance.setdefault(metric_id, str(path))
    for metric_id in signatures.keys() & table.provenance.keys():
        table.provenance[metric_id] = signatures[metric_id]
    per_system: dict[tuple[str, str], list[float]] = {}
    for (metric_id, system_id, _), score in sorted(table.segment_scores.items()):
        per_system.setdefault((metric_id, system_id), []).append(score)
    for skey, scores in per_system.items():
        if len(scores) == n_segments and skey not in table.system_scores:
            table.system_scores[skey] = _mean(scores)
    return table


def dump_scores(table: MetricScoreTable) -> str:
    """Serialize a score table in the external-scores TSV format.

    Provenance appears as '# signature:' comment lines, so a dump re-read
    by load_external_metric_scores gives back the same table.
    """
    lines = [f"{SIGNATURE_PREFIX}{m}\t{table.provenance[m]}" for m in table.metric_ids()]
    for (metric_id, system_id, segment_id), score in sorted(table.segment_scores.items()):
        lines.append(f"{metric_id}\t{system_id}\t{segment_id}\t{score!r}")
    for (metric_id, system_id), score in sorted(table.system_scores.items()):
        lines.append(f"{metric_id}\t{system_id}\t{score!r}")
    return "\n".join(lines) + "\n" if lines else ""
