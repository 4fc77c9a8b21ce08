import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricval import BleuConfig, ConfigError, corpus_bleu, sentence_bleu
from metricval.metrics import (
    DEFAULT_CORPUS_BLEU,
    bleu_counts,
    closest_ref_length,
)

from oracles import bleu_naive

UNSMOOTHED = BleuConfig(smoothing="none")

token = st.sampled_from(["the", "cat", "sat", "on", "mat", "a", "dog", "ran"])
tokens = st.lists(token, min_size=0, max_size=12).map(tuple)
nonempty_tokens = st.lists(token, min_size=1, max_size=12).map(tuple)


class TestCounts:
    def test_clipping_caps_at_reference_count(self):
        hyp = ("the",) * 7
        [(matched, total)] = bleu_counts(hyp, (("the", "cat"),), 1)
        assert (matched, total) == (1, 7)

    def test_clip_uses_max_over_references(self):
        hyp = ("the", "the")
        [(matched, _)] = bleu_counts(hyp, (("the",), ("the", "the")), 1)
        assert matched == 2

    @given(nonempty_tokens, st.lists(nonempty_tokens, min_size=1, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_extra_reference_never_reduces_matches(self, hyp, refs):
        extra = refs + [hyp]
        before = bleu_counts(hyp, tuple(refs), 2)
        after = bleu_counts(hyp, tuple(extra), 2)
        for (num_b, den_b), (num_a, den_a) in zip(before, after):
            assert den_a == den_b
            assert num_a >= num_b


class TestClosestRefLength:
    def test_picks_nearest(self):
        assert closest_ref_length(5, [3, 9]) == 3
        assert closest_ref_length(8, [3, 9]) == 9

    def test_tie_prefers_shorter(self):
        assert closest_ref_length(5, [4, 6]) == 4
        assert closest_ref_length(5, [6, 4]) == 4


class TestSentenceBleu:
    def test_identity_is_exactly_one(self):
        hyp = ("the", "cat", "sat", "on", "a", "mat")
        assert sentence_bleu(hyp, (hyp,), UNSMOOTHED) == 1.0
        assert sentence_bleu(hyp, (hyp,)) == 1.0  # smoothed default too

    def test_empty_hypothesis_is_zero(self):
        assert sentence_bleu((), (("the",),), UNSMOOTHED) == 0.0
        assert sentence_bleu((), (("the",),)) == 0.0

    def test_short_hypothesis_brevity_penalty(self):
        # 3 of 4 tokens, all n-gram orders perfect for the truncated orders
        hyp = ("the", "cat", "sat")
        ref = ("the", "cat", "sat", "down")
        score = sentence_bleu(hyp, (ref,), UNSMOOTHED)
        assert score == pytest.approx(math.exp(1 - 4 / 3), abs=1e-12)

    def test_no_brevity_penalty_when_longer(self):
        hyp = ("the", "cat", "sat", "down", "now")
        ref = ("the", "cat", "sat", "down")
        with_bp = sentence_bleu(hyp, (ref,), UNSMOOTHED)
        without = sentence_bleu(
            hyp, (ref,), BleuConfig(smoothing="none", use_brevity_penalty=False)
        )
        assert with_bp == without

    def test_brevity_penalty_can_be_disabled(self):
        hyp = ("the", "cat", "sat")
        ref = ("the", "cat", "sat", "down")
        score = sentence_bleu(
            hyp, (ref,), BleuConfig(smoothing="none", use_brevity_penalty=False)
        )
        assert score == 1.0

    def test_truncation_restricts_orders(self):
        hyp = ("the", "cat")
        ref = ("the", "cat", "sat", "down")
        # orders 1..2 both perfect; BP = exp(1 - 4/2)
        assert sentence_bleu(hyp, (ref,), UNSMOOTHED) == pytest.approx(
            math.exp(-1), abs=1e-12
        )

    def test_truncation_off_zeroes_short_hypotheses(self):
        hyp = ("the", "cat")
        ref = ("the", "cat", "sat", "down")
        config = BleuConfig(smoothing="none", effective_n_truncation=False)
        assert sentence_bleu(hyp, (ref,), config) == 0.0

    def test_zero_match_order_zeroes_unsmoothed(self):
        hyp = ("the", "dog", "sat", "mat")
        ref = ("the", "cat", "ran", "on")
        assert sentence_bleu(hyp, (ref,), UNSMOOTHED) == 0.0

    def test_add_one_leaves_unigrams_unsmoothed(self):
        hyp = ("a", "b")
        ref = ("a", "c")
        # p1 = 1/2 raw; p2 = (0+1)/(1+1) smoothed
        score = sentence_bleu(hyp, (ref,))
        assert score == pytest.approx(math.sqrt(0.25), abs=1e-12)

    def test_add_one_from_first_order(self):
        hyp = ("a", "b", "c", "d")
        ref = ("e", "f", "g", "h")
        config = BleuConfig(smoothing="add-k", smooth_k=1.0, smooth_min_order=1)
        expected = math.exp(
            sum(math.log(v) for v in (1 / 5, 1 / 4, 1 / 3, 1 / 2)) / 4
        )
        assert sentence_bleu(hyp, (ref,), config) == pytest.approx(expected, abs=1e-12)

    def test_unmatched_unigram_still_zeroes_add_one(self):
        hyp = ("x", "y", "z")
        ref = ("a", "b", "c")
        assert sentence_bleu(hyp, (ref,)) == 0.0

    def test_exp_decay_smoothing(self):
        hyp = ("a", "b", "c")
        ref = ("a", "x", "c")
        config = BleuConfig(smoothing="exp-decay")
        # p1 = 2/3; p2 = 0/2 -> 1/(2*2); p3 = 0/1 -> 1/(4*1)
        expected = math.exp(
            (math.log(2 / 3) + math.log(1 / 4) + math.log(1 / 4)) / 3
        )
        assert sentence_bleu(hyp, (ref,), config) == pytest.approx(expected, abs=1e-12)

    def test_multiple_references_take_best_clip(self):
        hyp = ("the", "cat", "sat")
        refs = (("a", "dog", "ran"), ("the", "cat", "sat"))
        assert sentence_bleu(hyp, refs, UNSMOOTHED) == 1.0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            BleuConfig(max_n=0)
        with pytest.raises(ConfigError):
            BleuConfig(smoothing="laplace")
        with pytest.raises(ConfigError):
            BleuConfig(smooth_k=0)

    @given(nonempty_tokens, st.lists(nonempty_tokens, min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_unsmoothed(self, hyp, refs):
        got = sentence_bleu(hyp, tuple(refs), UNSMOOTHED)
        want = bleu_naive(list(hyp), [list(r) for r in refs])
        assert got == pytest.approx(want, abs=1e-12)

    @given(nonempty_tokens, st.lists(nonempty_tokens, min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_matches_naive_add_one(self, hyp, refs):
        got = sentence_bleu(hyp, tuple(refs))
        want = bleu_naive(list(hyp), [list(r) for r in refs], add_k=1.0)
        assert got == pytest.approx(want, abs=1e-12)

    @given(tokens, st.lists(nonempty_tokens, min_size=1, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_bounded(self, hyp, refs):
        for config in (UNSMOOTHED, BleuConfig(), BleuConfig(smoothing="exp-decay")):
            assert 0.0 <= sentence_bleu(hyp, tuple(refs), config) <= 1.0


class TestCorpusBleu:
    def test_identity_is_exactly_one(self):
        pairs = [
            (("the", "cat"), (("the", "cat"),)),
            (("a", "dog", "ran"), (("a", "dog", "ran"),)),
        ]
        assert corpus_bleu(pairs, DEFAULT_CORPUS_BLEU) == 1.0

    def test_pools_counts_not_scores(self):
        # seg 1 perfect, seg 2 hopeless; pooling differs from averaging
        pairs = [
            (("the", "cat", "sat", "on"), (("the", "cat", "sat", "on"),)),
            (("dog",), (("mat",),)),
        ]
        pooled = corpus_bleu(pairs, DEFAULT_CORPUS_BLEU)
        # unigrams 4/5; bigrams 3/3; trigrams 2/2; 4-grams 1/1; lengths 5 vs 5
        expected = math.exp(
            (math.log(4 / 5) + math.log(1) + math.log(1) + math.log(1)) / 4
        )
        assert pooled == pytest.approx(expected, abs=1e-12)

    def test_duplication_invariance_exact(self):
        rng = random.Random(9)
        vocab = ["a", "b", "c", "d", "e"]
        pairs = []
        for _ in range(10):
            ref = tuple(rng.choices(vocab, k=rng.randint(3, 8)))
            hyp = tuple(
                t if rng.random() < 0.7 else rng.choice(vocab) for t in ref
            )
            pairs.append((hyp, (ref,)))
        once = corpus_bleu(pairs, DEFAULT_CORPUS_BLEU)
        twice = corpus_bleu(pairs * 2, DEFAULT_CORPUS_BLEU)
        assert once == twice

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_bleu([], DEFAULT_CORPUS_BLEU)

    def test_corpus_brevity_penalty_uses_summed_lengths(self):
        pairs = [
            (("the", "cat"), (("the", "cat", "sat"),)),
            (("a",), (("a", "dog"),)),
        ]
        config = BleuConfig(smoothing="none", max_n=1)
        # unigrams: 3/3 matched; c = 3, r = 5
        assert corpus_bleu(pairs, config) == pytest.approx(
            math.exp(1 - 5 / 3), abs=1e-12
        )
