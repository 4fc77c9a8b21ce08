"""The per-segment sufficient statistics behind every BLEU and chrF score.

Integer statistics are checked against brute-force counts from oracles.py;
score_systems is checked against the public single-pair scorers.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricval import (
    BleuConfig,
    ChrfConfig,
    EvaluationCorpus,
    Segment,
    SystemOutput,
    TestSet,
    TokenizationScheme,
    chrf,
    corpus_bleu,
    corpus_chrf,
    score_systems,
    sentence_bleu,
    tokenize,
)
from metricval.metrics import (
    _statistics,
    bleu_counts,
    chrf_statistics,
)

from oracles import char_ngrams_naive, chrf_naive, ngrams_naive

# Few distinct characters so n-grams repeat and match, plus the awkward
# cases: astral characters, combining marks, a lone surrogate, several kinds
# of whitespace, punctuation and digits.
ALPHABET = [
    "a", "b", "A", "é", "́", "\U0001F600", "\U0001D518", "\ud800",
    " ", "\t", "　", ".", ",", "1", "-",
]
unicode_text = st.text(
    alphabet=st.one_of(st.sampled_from(ALPHABET), st.characters()), max_size=16
)
references = st.lists(unicode_text, min_size=1, max_size=3)
hypotheses = st.lists(unicode_text, min_size=1, max_size=4)
schemes = st.builds(
    TokenizationScheme, st.sampled_from(["whitespace", "intl", "char"]), st.booleans()
)


def _clipped_naive(hyp, refs, n):
    refs_counts = [ngrams_naive(ref, n) for ref in refs]
    return sum(
        min(count, max(rc.get(gram, 0) for rc in refs_counts))
        for gram, count in ngrams_naive(hyp, n).items()
    )


class TestBleuStatistics:
    @given(references, hypotheses, st.integers(1, 6), schemes)
    @settings(max_examples=150, deadline=None)
    def test_match_brute_force(self, ref_texts, hyp_texts, max_n, scheme):
        refs = [tokenize(t, scheme) for t in ref_texts]
        hyps = [tokenize(t, scheme) for t in hyp_texts]
        stats = _statistics(BleuConfig(max_n=max_n), refs, hyps).tolist()
        ref_lens = [len(ref) for ref in refs]
        for hyp, got in zip(hyps, stats):
            want = [
                [_clipped_naive(hyp, refs, n), max(0, len(hyp) - n + 1)]
                for n in range(1, max_n + 1)
            ]
            closest = min(ref_lens, key=lambda r: (abs(r - len(hyp)), r))
            want.append([len(hyp), closest])
            assert got == want
            assert all(type(v) is int for row in got for v in row)

    @given(references, unicode_text, st.integers(1, 6))
    @settings(max_examples=50, deadline=None)
    def test_bleu_counts_is_one_hypothesis_call(self, ref_texts, hyp_text, max_n):
        scheme = TokenizationScheme("char")
        refs = [tokenize(t, scheme) for t in ref_texts]
        hyp = tokenize(hyp_text, scheme)
        assert bleu_counts(hyp, refs, max_n) == [
            (_clipped_naive(hyp, refs, n), max(0, len(hyp) - n + 1))
            for n in range(1, max_n + 1)
        ]


class TestChrfStatistics:
    @given(references, hypotheses, st.integers(1, 7), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_match_brute_force(self, ref_texts, hyp_texts, char_n, ws):
        config = ChrfConfig(char_n=char_n, include_whitespace=ws)
        refs = [t if ws else "".join(t.split()) for t in ref_texts]
        hyps = [t if ws else "".join(t.split()) for t in hyp_texts]
        for ref in refs:
            stats = _statistics(config, [ref], hyps).tolist()
            for hyp, got in zip(hyps, stats):
                want = []
                for n in range(1, char_n + 1):
                    hc = char_ngrams_naive(hyp, n)
                    rc = char_ngrams_naive(ref, n)
                    tp = sum(min(c, rc.get(g, 0)) for g, c in hc.items())
                    want.append([tp, sum(hc.values()), sum(rc.values())])
                assert got == want
                assert chrf_statistics(hyp, ref, char_n) == [tuple(w) for w in want]

    @given(unicode_text, references)
    @settings(max_examples=100, deadline=None)
    def test_chrf_takes_best_reference(self, hyp, refs):
        assert chrf(hyp, refs) == pytest.approx(
            max(chrf_naive(hyp, ref) for ref in refs), abs=1e-12
        )


def _mean(values):
    return values[0] if len(set(values)) == 1 else math.fsum(values) / len(values)


@given(
    st.lists(st.tuples(references, hypotheses), min_size=1, max_size=4),
    st.integers(1, 5),
    st.integers(1, 6),
    schemes,
    st.sampled_from(["mean", "corpus"]),
)
@settings(max_examples=60, deadline=None)
def test_score_systems_equals_single_pair_scorers(rows, max_n, char_n, scheme, aggregate):
    n_refs = len(rows[0][0])
    n_systems = len(rows[0][1])
    segments = [
        Segment("src", tuple((refs * 3)[:n_refs]))
        for refs, _ in rows
    ]
    hyps = [[(h * 4)[s] for _, h in rows] for s in range(n_systems)]
    corpus = EvaluationCorpus(
        TestSet(tuple(segments)),
        {f"s{s}": SystemOutput(f"s{s}", tuple(hyps[s])) for s in range(n_systems)},
    )
    bleu = BleuConfig(max_n=max_n, smoothing="exp-decay")
    chrf_config = ChrfConfig(char_n=char_n)
    table = score_systems(corpus, {"b": bleu, "c": chrf_config}, scheme, aggregate)
    assert all(type(v) is float for v in table.segment_scores.values())
    assert all(type(v) is float for v in table.system_scores.values())
    fold = str.lower if scheme.lowercase else str
    for s in range(n_systems):
        bleu_pairs = [
            (tokenize(h, scheme), [tokenize(r, scheme) for r in seg.references])
            for h, seg in zip(hyps[s], segments)
        ]
        chrf_pairs = [
            (fold(h), [fold(r) for r in seg.references])
            for h, seg in zip(hyps[s], segments)
        ]
        bleu_scores = [sentence_bleu(h, refs, bleu) for h, refs in bleu_pairs]
        chrf_scores = [chrf(h, refs, chrf_config) for h, refs in chrf_pairs]
        for i in range(len(segments)):
            assert table.segment_scores[("b", f"s{s}", i)] == bleu_scores[i]
            assert table.segment_scores[("c", f"s{s}", i)] == chrf_scores[i]
        if aggregate == "corpus":
            assert table.system_scores[("b", f"s{s}")] == corpus_bleu(bleu_pairs, bleu)
            assert table.system_scores[("c", f"s{s}")] == corpus_chrf(
                chrf_pairs, chrf_config
            )
        else:
            assert table.system_scores[("b", f"s{s}")] == _mean(bleu_scores)
            assert table.system_scores[("c", f"s{s}")] == _mean(chrf_scores)
