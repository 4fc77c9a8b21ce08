"""Independent reference implementations used to check the package.

Everything here is deliberately written with different machinery than the
package code: exact rational arithmetic, O(n^2) enumeration, numerical
quadrature, brute-force counting, and per-row loops.  Slow is fine;
these only run in tests.
"""

from __future__ import annotations

import math
import operator
import random
import re
import sys
import unicodedata
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce

import numpy as np
from scipy.integrate import quad

from metricval import (
    AssessorCurve,
    DataError,
    InsufficientDataError,
    Judgments,
    WorkerStats,
    pearson,
    segment_da,
    system_da,
)
from metricval.correlation import COEFFICIENTS
from metricval.findings import warning


def pearson_exact(xs, ys) -> float:
    """Pearson r via exact rational sums; float only at the final sqrt."""
    n = len(xs)
    fx = [Fraction(x) for x in xs]
    fy = [Fraction(y) for y in ys]
    mx = sum(fx) / n
    my = sum(fy) / n
    num = sum((a - mx) * (b - my) for a, b in zip(fx, fy))
    ssx = sum((a - mx) ** 2 for a in fx)
    ssy = sum((b - my) ** 2 for b in fy)
    r2 = (num * num) / (ssx * ssy)
    r = math.sqrt(float(r2))
    return math.copysign(min(r, 1.0), float(num))


def ranks_naive(values) -> list[float]:
    """Average ranks, 1-based, by direct definition."""
    out = []
    for v in values:
        below = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        # occupies positions below+1 .. below+equal
        out.append(below + (equal + 1) / 2)
    return out


def kendall_naive(xs, ys) -> dict:
    """All pair tallies by O(n^2) enumeration, plus both coefficients."""
    n = len(xs)
    conc = disc = tied_x = tied_y = tied_both = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = (xs[i] > xs[j]) - (xs[i] < xs[j])
            dy = (ys[i] > ys[j]) - (ys[i] < ys[j])
            if dx == 0 and dy == 0:
                tied_both += 1
            elif dx == 0:
                tied_x += 1
            elif dy == 0:
                tied_y += 1
            elif dx == dy:
                conc += 1
            else:
                disc += 1
    n0 = n * (n - 1) // 2
    gamma = (conc - disc) / (conc + disc) if conc + disc else None
    tx = tied_x + tied_both
    ty = tied_y + tied_both
    denom = math.sqrt(n0 - tx) * math.sqrt(n0 - ty)
    tau_b = (conc - disc) / denom if denom else None
    return {
        "concordant": conc,
        "discordant": disc,
        "tied_x": tx,
        "tied_y": ty,
        "gamma": gamma,
        "tau_b": tau_b,
    }


def spearman_naive(xs, ys) -> float:
    return pearson_exact(ranks_naive(xs), ranks_naive(ys))


def t_density(x: float, df: float) -> float:
    lognorm = (
        math.lgamma((df + 1) / 2)
        - math.lgamma(df / 2)
        - 0.5 * math.log(df * math.pi)
    )
    return math.exp(lognorm - ((df + 1) / 2) * math.log1p(x * x / df))


def t_sf_quad(t: float, df: float) -> float:
    """P(T > t) by adaptive quadrature of the density."""
    if t < 0:
        return 1.0 - t_sf_quad(-t, df)
    tail, _ = quad(t_density, t, np.inf, args=(df,), limit=200)
    return tail


def t_quantile_quad(p_upper: float, df: float) -> float:
    """t with P(T > t) = p_upper, by bisection on the quadrature sf."""
    lo, hi = 0.0, 1.0
    while t_sf_quad(hi, df) > p_upper:
        hi *= 2
    for _ in range(80):
        mid = (lo + hi) / 2
        if t_sf_quad(mid, df) > p_upper:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def min_r_quad(n: int, alpha: float) -> float:
    """Smallest |r| with two-sided p < alpha, from the quadrature quantile.

    Inverts t = r * sqrt((n-2) / (1-r^2)) at the critical t.
    """
    df = n - 2
    t = t_quantile_quad(alpha / 2, df)
    return t / math.sqrt(df + t * t)


@lru_cache(maxsize=None)
def _bar_naive(n: int) -> str:
    need = f"|r| > {min_r_quad(n, 0.05):.3f}" if n >= 4 else "at least 4 points"
    return f"the r = 0 test at p<0.05 needs {need}"


def table_correlation_naive(
    human: dict, scores: dict, kind: str, level: str, min_systems: int = 5
):
    """segment_correlation / system_correlation over plain maps.

    Intersects the key sets, builds the coverage findings (and the
    few-systems one below min_systems at system level) and calls the coefficient on the shared
    points in key order.  Returns (value, n, findings) or raises what the
    package raises.
    """
    shared = sorted(set(human) & set(scores))
    n, findings = len(shared), []
    if n < len(human):
        findings.append(warning(
            f"metric covers {n} of {len(human)} {level}s with human scores; "
            f"{len(human) - n} excluded", code="partial-coverage"))
    if n < len(scores):
        findings.append(warning(
            f"{len(scores) - n} metric-scored {level}(s) have no human score and "
            "were excluded", code="unmatched-scores"))
    if n < 3:
        raise InsufficientDataError(
            f"only {n} {level}s are scored by both metric and humans; need at least 3")
    if level == "system" and n < min_systems:
        findings.append(warning(f"only {n} systems; {_bar_naive(n)}", code="few-systems"))
    xs = [float(scores[k]) for k in shared]
    ys = [float(human[k]) for k in shared]
    return COEFFICIENTS[kind](xs, ys), n, findings


def aligned_naive(scores: dict, judged) -> tuple:
    """One metric's row of correlation.aligned, from a plain map of its
    scores, with DA from judged, (key, score) pairs in any order: each
    key's DA is the mean of its scores.

    Returns (shared keys in key order, metric scores, DA scores, keys with
    DA, keys with a metric score).
    """
    values: dict = {}
    for key, score in judged:
        values.setdefault(key, []).append(score)
    human = {key: _mean_naive(v) for key, v in values.items()}
    shared = [key for key in sorted(human) if key in scores]
    return (shared, [float(scores[k]) for k in shared], [float(human[k]) for k in shared],
            len(human), len(scores))


def ngrams_naive(tokens, n) -> dict:
    counts: dict = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i : i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def bleu_naive(hyp, refs, max_n=4, add_k=0.0, min_order=2, truncate=True) -> float:
    """Sentence BLEU by direct counting; add_k=0 means no smoothing."""
    if not hyp:
        return 0.0
    orders = min(max_n, len(hyp)) if truncate else max_n
    precisions = []
    for n in range(1, orders + 1):
        hyp_counts = ngrams_naive(hyp, n)
        matched = 0
        for g, c in hyp_counts.items():
            best = max((ngrams_naive(r, n).get(g, 0) for r in refs), default=0)
            matched += min(c, best)
        total = max(0, len(hyp) - n + 1)
        if total == 0:
            precisions.append(0.0)
            continue
        if add_k and n >= min_order:
            precisions.append((matched + add_k) / (total + add_k))
        else:
            precisions.append(matched / total)
    if any(p == 0.0 for p in precisions):
        return 0.0
    logmean = sum(math.log(p) for p in precisions) / len(precisions)
    score = math.exp(logmean)
    ref_lens = sorted(len(r) for r in refs)
    closest = min(ref_lens, key=lambda L: (abs(L - len(hyp)), L))
    if len(hyp) < closest:
        score *= math.exp(1 - closest / len(hyp))
    return score


def ngram_statistics_naive(seqs, n_refs: int, max_n: int):
    """(overlaps, totals) of metrics._ngram_statistics as nested lists, from
    one Counter per sequence and order: & takes the minimum count, | the
    maximum."""
    counts = [
        [Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))
         for n in range(1, max_n + 1)]
        for seq in seqs
    ]
    refs = counts[:n_refs]
    clip = [reduce(operator.or_, orders) for orders in zip(*refs)]
    overlaps = [
        [[sum((hyp[o] & ref[o]).values()) for o in range(max_n)] for ref in (*refs, clip)]
        for hyp in counts[n_refs:]
    ]
    totals = [[sum(orders[o].values()) for o in range(max_n)] for orders in counts]
    return overlaps, totals


def char_ngrams_naive(text, n) -> dict:
    counts: dict = {}
    for i in range(len(text) - n + 1):
        counts[text[i : i + n]] = counts.get(text[i : i + n], 0) + 1
    return counts


def chrf_naive(hyp, ref, max_n=6, beta=2.0) -> float:
    """chrF against a single reference, whitespace removed, by brute force."""
    h = "".join(hyp.split())
    r = "".join(ref.split())
    precisions = []
    recalls = []
    for n in range(1, max_n + 1):
        hc = char_ngrams_naive(h, n)
        rc = char_ngrams_naive(r, n)
        h_total = sum(hc.values())
        r_total = sum(rc.values())
        if h_total == 0 and r_total == 0:
            continue
        overlap = sum(min(c, rc.get(g, 0)) for g, c in hc.items())
        precisions.append(overlap / h_total if h_total else 0.0)
        recalls.append(overlap / r_total if r_total else 0.0)
    if not precisions:
        return 0.0
    p = sum(precisions) / len(precisions)
    rr = sum(recalls) / len(recalls)
    if p == 0.0 and rr == 0.0:
        return 0.0
    b2 = beta * beta
    return (1 + b2) * p * rr / (b2 * p + rr)


def quartiles_naive(values, q) -> float:
    """Linear-interpolation percentile, reimplemented from the definition."""
    v = sorted(values)
    if len(v) == 1:
        return v[0]
    pos = (len(v) - 1) * q
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    return v[lo] * (1 - frac) + v[hi] * frac


def trivariate_normal(rng: np.random.Generator, n: int, r13: float, r23: float,
                      r12: float) -> np.ndarray:
    """n draws of (x1, x2, x3) with unit variances and the given correlations."""
    cov = np.array([
        [1.0, r12, r13],
        [r12, 1.0, r23],
        [r13, r23, 1.0],
    ])
    chol = np.linalg.cholesky(cov)
    return rng.standard_normal((n, 3)) @ chol.T


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


def tokenize_intl_naive(text: str) -> list[str]:
    """intl tokens via three regexes over whole-Unicode category classes."""
    for pattern, repl in _intl_rules():
        text = pattern.sub(repl, text)
    return text.split()


# Judgments: the per-row pipeline the columnar judgments module replaced.
# Rows are (worker_id, system_id, segment_id, score) tuples in input order.


def judgments_from_rows(rows) -> Judgments:
    """The Judgments record holding rows, column by column."""
    return Judgments(*(tuple(r[k] for r in rows) for k in range(4)))


def judged_da(judged, level: str = "segment"):
    """DA at level from one judgment per (key, score) pair of judged, the key
    (system_id, segment_id) at "segment" and a system id, judged on segment
    0, at "system".  A key judged once has its score as DA exactly."""
    if level != "segment":
        judged = [((system_id, 0), score) for system_id, score in judged]
    da, _ = segment_da(judgments_from_rows(
        [("w", system_id, segment_id, score) for (system_id, segment_id), score in judged]
    ))
    return da if level == "segment" else system_da(da)


def _mean_naive(values) -> float:
    first = values[0]
    if all(v == first for v in values):
        return first
    return math.fsum(values) / len(values)


def worker_stats_naive(rows) -> dict:
    scores: dict[str, list[float]] = {}
    for worker_id, _, _, score in rows:
        scores.setdefault(worker_id, []).append(score)
    stats = {}
    for worker_id in sorted(scores):
        vals = scores[worker_id]
        mean = _mean_naive(vals)
        if len(vals) < 2 or all(v == vals[0] for v in vals):
            sd = 0.0
        else:
            sd = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1))
        stats[worker_id] = WorkerStats(worker_id, len(vals), mean, sd)
    return stats


def standardize_naive(rows, mode: str):
    """(kept rows with standardized scores, worker stats, findings)."""
    stats = worker_stats_naive(rows)
    findings = []
    dropped = set()
    if mode == "zscore":
        for worker_id in sorted(stats):
            st = stats[worker_id]
            if st.count < 2:
                dropped.add(worker_id)
                findings.append(warning(
                    f"worker {worker_id!r} has a single judgment; "
                    "dropped in zscore mode",
                    code="dropped-worker",
                ))
            elif st.sd == 0.0:
                dropped.add(worker_id)
                findings.append(warning(
                    f"worker {worker_id!r} scored everything identically "
                    f"({st.count} judgments); dropped in zscore mode",
                    code="dropped-worker",
                ))
    out = []
    for worker_id, system_id, segment_id, score in rows:
        if worker_id in dropped:
            continue
        value = score - stats[worker_id].mean
        if mode == "zscore":
            value /= stats[worker_id].sd
        out.append((worker_id, system_id, segment_id, value))
    return out, stats, findings


def segment_da_naive(rows, min_count: int):
    """((system_id, segment_id, da_score, judgments) rows sorted by item,
    findings) from standardized rows."""
    if not rows:
        return [], [warning("no judgments; no DA scores produced", code="no-data")]
    groups: dict[tuple[str, int], list[float]] = {}
    for _, system_id, segment_id, score in rows:
        groups.setdefault((system_id, segment_id), []).append(score)
    out = []
    excluded = []
    for key in sorted(groups):
        vals = groups[key]
        if len(vals) < min_count:
            excluded.append(key)
            continue
        out.append((*key, _mean_naive(vals), len(vals)))
    findings = []
    if excluded:
        shown = ", ".join(f"{s}:{i}" for s, i in excluded[:5])
        if len(excluded) > 5:
            shown += ", ..."
        findings.append(warning(
            f"excluded {len(excluded)} (system, segment) group(s) with "
            f"fewer than {min_count} judgments: {shown}",
            code="sparse-segments",
        ))
    return out, findings


def system_da_naive(segment_rows) -> list:
    """(system_id, da_score, segments) rows sorted by system from
    segment_da_naive's rows."""
    groups: dict[str, list[float]] = {}
    for system_id, _, da_score, _ in segment_rows:
        groups.setdefault(system_id, []).append(da_score)
    return [
        (system_id, _mean_naive(groups[system_id]), len(groups[system_id]))
        for system_id in sorted(groups)
    ]


def simulate_assessor_count_naive(rows, config) -> AssessorCurve:
    groups: dict[tuple[str, int], list[float]] = {}
    for _, system_id, segment_id, score in rows:
        groups.setdefault((system_id, segment_id), []).append(score)
    if len(groups) < 3:
        raise InsufficientDataError(
            f"{len(groups)} items; the simulation needs at least 3"
        )
    rng = random.Random(config.shuffle_seed)
    kept = []
    for key in sorted(groups):
        vals = list(groups[key])
        if len(vals) < config.n_total:
            raise InsufficientDataError(
                f"item {key} has {len(vals)} judgments; n_total="
                f"{config.n_total} required"
            )
        rng.shuffle(vals)
        kept.append(vals[: config.n_total])
    points = []
    recommended = None
    for i in config.i_values:
        r = pearson(
            [_mean_naive(vals[:i]) for vals in kept],
            [_mean_naive(vals[i:]) for vals in kept],
        )
        points.append((i, r))
        if recommended is None and r >= config.target_r:
            recommended = i
    return AssessorCurve(
        tuple(points), recommended, len(kept), config.n_total, config.target_r
    )


# Score tables: the dict-per-level loader and merger the score columns
# replaced.  A table is {metric_id: (provenance, segment, system)} with
# segment {(system_id, segment_id): score} and system {system_id: score}.


def load_scores_naive(path, corpus) -> dict:
    """load_external_metric_scores, one dict entry per row, every check in
    file order; raises the DataError the package raises."""
    n_segments = len(corpus.test_set)
    table: dict = {}
    signatures: dict = {}
    with open(path, encoding="utf-8") as fh:
        lines = list(fh)
    for lineno, line in enumerate(lines, start=1):

        def bad(message):
            return DataError(f"{path} line {lineno}: {message}")

        line = line.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            if line.startswith("# signature: ") and "\t" in line:
                metric_id, signature = line[len("# signature: "):].split("\t", 1)
                signatures[metric_id] = signature
            continue
        cols = line.split("\t")
        if len(cols) not in (3, 4):
            raise bad(f"expected 3 or 4 tab-separated columns, got {len(cols)}")
        metric_id, system_id = cols[0], cols[1]
        if system_id not in corpus.outputs:
            raise bad(f"unknown system {system_id!r}")
        try:
            score = float(cols[-1])
        except ValueError:
            raise bad(f"unparseable score {cols[-1]!r}") from None
        if not math.isfinite(score):
            raise bad(f"non-finite score {cols[-1]!r}")
        _, segment, system = table.setdefault(metric_id, (None, {}, {}))
        if len(cols) == 4:
            try:
                segment_id = int(cols[2])
            except ValueError:
                raise bad(f"unparseable segment id {cols[2]!r}") from None
            if not 0 <= segment_id < n_segments:
                raise bad(f"segment {segment_id} outside 0..{n_segments - 1}")
            key, scores, flat = (system_id, segment_id), segment, (metric_id, system_id, segment_id)
        else:
            key, scores, flat = system_id, system, (metric_id, system_id)
        if key in scores:
            raise bad(f"duplicate entry for {flat}")
        scores[key] = score
    out = {}
    for metric_id, (_, segment, system) in table.items():
        for system_id in sorted(corpus.outputs):
            scores = [segment[(system_id, i)] for i in range(n_segments)
                      if (system_id, i) in segment]
            if len(scores) == n_segments and system_id not in system:
                system[system_id] = _mean_naive(scores)
        out[metric_id] = (signatures.get(metric_id, str(path)), segment, system)
    return out


def merge_scores_naive(*tables) -> dict:
    """merge_tables over dicts.  Metrics are met in each table's order, segment
    scores are checked before system scores, and of several duplicates the
    first in the later table's insertion order (file order for a loaded file)
    is named."""
    merged: dict = {}
    for table in tables:
        for metric_id, (provenance, segment, system) in table.items():
            if metric_id not in merged:
                merged[metric_id] = (provenance, dict(segment), dict(system))
                continue
            have_provenance, *have = merged[metric_id]
            if have_provenance != provenance:
                raise DataError(
                    f"metric {metric_id!r} appears with two provenances: "
                    f"{have_provenance!r} and {provenance!r}")
            for level, into, new in zip(("segment", "system"), have, (segment, system)):
                repeated = [key for key in new if key in into]
                if repeated:
                    key = repeated[0] if level == "segment" else (repeated[0],)
                    raise DataError(f"duplicate {level} score for {(metric_id, *key)}")
                into.update(new)
    return merged


def score_rows_naive(table: dict, level: str) -> list[tuple]:
    """Every (metric_id, system_id[, segment_id], score) row, sorted."""
    index = 1 if level == "segment" else 2
    return sorted(
        (metric_id, *(key if level == "segment" else (key,)), score)
        for metric_id, parts in table.items()
        for key, score in parts[index].items()
    )


def dump_scores_naive(table: dict) -> str:
    lines = [f"# signature: {m}\t{table[m][0]}" for m in sorted(table)]
    lines += ["\t".join(map(str, row)) for level in ("segment", "system")
              for row in score_rows_naive(table, level)]
    return "".join(line + "\n" for line in lines)
