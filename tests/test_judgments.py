import csv
import math
import random
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricval import (
    CENTER,
    ZSCORE,
    AssessorCurve,
    AssessorSimConfig,
    DataError,
    InsufficientDataError,
    Judgments,
    UndefinedCorrelationError,
    load_judgments,
    segment_da,
    simulate_assessor_count,
    standardize_judgments,
    system_da,
)
from metricval.judgments import _group_values, _grouping
from metricval.metrics import CHUNK_ROWS
from metricval.report import (
    StudyConfig,
    load_das,
    render_table,
    segment_da_rows,
    system_da_rows,
)

from oracles import (
    judgments_from_rows as _judgments,
    segment_da_naive,
    simulate_assessor_count_naive,
    standardize_naive,
    system_da_naive,
    worker_stats_naive,
)


def _raw(worker, scores, system="sys", start=0):
    """Rows (worker, system, segment, score) for consecutive segments."""
    return [(worker, system, start + i, float(s)) for i, s in enumerate(scores)]


def _std(rows, mode=ZSCORE):
    return standardize_judgments(_judgments(rows), mode)


class TestLoadJudgments:
    def _write(self, tmp_path, text):
        p = tmp_path / "judg.csv"
        p.write_text(text, encoding="utf-8")
        return p

    def test_parses_rows(self, tmp_path):
        p = self._write(
            tmp_path,
            "worker_id,system_id,segment_id,score\nw1,sysA,0,70\nw2,sysB,3,12.5\n",
        )
        rows = load_judgments(p)
        assert rows == _judgments([("w1", "sysA", 0, 70.0), ("w2", "sysB", 3, 12.5)])
        assert len(rows) == 2

    def test_extra_columns_ignored(self, tmp_path):
        p = self._write(
            tmp_path,
            "worker_id,system_id,segment_id,score,hit_id\nw1,sysA,0,70,abc\n",
        )
        assert load_judgments(p).score.tolist() == [70.0]

    def test_missing_column(self, tmp_path):
        p = self._write(tmp_path, "worker_id,system_id,score\nw1,sysA,70\n")
        with pytest.raises(DataError, match="segment_id"):
            load_judgments(p)

    def test_unparseable_row_names_line(self, tmp_path):
        p = self._write(
            tmp_path,
            "worker_id,system_id,segment_id,score\nw1,sysA,0,70\nw1,sysA,1,bad\n",
        )
        with pytest.raises(DataError, match="line 3"):
            load_judgments(p)

    @pytest.mark.parametrize(
        "body, line",
        [
            # an empty line 3 before the bad row on line 5
            ("w1,sysA,0,70\n\nw1,sysA,1,70\nw1,sysA,2,bad\n", 5),
            # a quoted score on lines 2-3 before the bad row on line 4
            ('w1,sysA,0,"70\n"\nw1,sysA,1,bad\n', 4),
            # a bad row on lines 2-3 is named by the line it starts on
            ('w1,"sys\nA",0,bad\n', 2),
        ],
    )
    def test_error_names_physical_line(self, tmp_path, body, line):
        p = self._write(tmp_path, "worker_id,system_id,segment_id,score\n" + body)
        with pytest.raises(DataError, match=rf"line {line}: unparseable row"):
            load_judgments(p)

    def test_short_row_names_line(self, tmp_path):
        # worker_id is the last column, so the short row on line 3 has none
        p = self._write(
            tmp_path,
            "score,segment_id,system_id,worker_id\n70,0,sysA,w1\n70,1,sysA\n",
        )
        with pytest.raises(DataError, match="line 3: unparseable row"):
            load_judgments(p)

    def test_negative_zero_score_kept(self, tmp_path):
        p = self._write(tmp_path, "worker_id,system_id,segment_id,score\nw,s,0,-0\n")
        [score] = load_judgments(p).score
        assert score == 0.0 and math.copysign(1.0, score) == -1.0

    def test_score_out_of_range(self, tmp_path):
        p = self._write(
            tmp_path, "worker_id,system_id,segment_id,score\nw1,sysA,0,101\n"
        )
        with pytest.raises(DataError, match=r"outside \[0, 100\]"):
            load_judgments(p)

    @pytest.mark.parametrize("score", ["nan", "-inf"])
    def test_non_finite_score(self, tmp_path, score):
        p = self._write(
            tmp_path, f"worker_id,system_id,segment_id,score\nw1,sysA,0,70\nw1,sysA,1,{score}\n"
        )
        with pytest.raises(DataError, match=rf"line 3: score {score} outside \[0, 100\]"):
            load_judgments(p)

    @pytest.mark.parametrize("segment", ["2.0", "True"])
    def test_segment_id_must_be_an_integer(self, tmp_path, segment):
        p = self._write(
            tmp_path, f"worker_id,system_id,segment_id,score\nw1,sysA,{segment},50\n"
        )
        with pytest.raises(DataError, match="line 2: unparseable row"):
            load_judgments(p)

    def test_negative_segment(self, tmp_path):
        p = self._write(
            tmp_path, "worker_id,system_id,segment_id,score\nw1,sysA,-1,50\n"
        )
        with pytest.raises(DataError, match="negative"):
            load_judgments(p)

    def test_segment_id_must_fit_int64(self, tmp_path):
        header = "worker_id,system_id,segment_id,score\n"
        p = self._write(tmp_path, f"{header}w1,sysA,{2**63 - 1},50\n")
        assert load_judgments(p).segment_id.tolist() == [2**63 - 1]
        p = self._write(tmp_path, f"{header}w1,sysA,0,50\nw1,sysA,{2**63},50\n")
        with pytest.raises(DataError, match=f"line 3: segment_id above {2**63 - 1}$"):
            load_judgments(p)

    def test_compact_columns(self, tmp_path):
        # 5,000 rows from 50 workers and 4 systems: one str per distinct id,
        # typed numeric columns, and a load peak far below the ~300 B/row
        # of one fresh str per id field, a float, an int and a tuple per row.
        rows = 5000
        lines = ["worker_id,system_id,segment_id,score"] + [
            f"worker{r % 50},system{r % 4},{r // 4},{(r * 37) % 101}"
            for r in range(rows)
        ]
        p = self._write(tmp_path, "\n".join(lines) + "\n")
        load_judgments(p)  # warm the csv module and numpy first
        tracemalloc.start()
        try:
            out = load_judgments(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out) == rows
        assert len({id(w) for w in out.worker_id}) == 50
        assert len({id(s) for s in out.system_id}) == 4
        assert isinstance(out.segment_id, np.ndarray)
        assert isinstance(out.score, np.ndarray)
        assert out.segment_id.dtype == np.int64 and out.score.dtype == np.float64
        assert peak < 100 * rows


def test_columns_must_align():
    with pytest.raises(ValueError, match="differ in length"):
        Judgments(("w",), ("sys",), (0,), ())


@pytest.mark.parametrize("segment_id, score, message", [
    # the first bad row is named, whichever column it is bad in
    ([0, -1, 2.0, True], [math.nan, 1.0, 2.0, 3.0], "row 0: score nan is not finite"),
    ([0, -1, 2.0, True], [0.0, 1.0, 2.0, 3.0], "row 1: segment_id -1 is not an int"),
    ([0, 1, 2.0, True], [0.0, 1.0, 2.0, 3.0], "row 2: segment_id 2.0 is not an int"),
    ([0, 1, 2, True], [0.0, 1.0, 2.0, 3.0], "row 3: segment_id True is not an int"),
    ([0, 1, 2, 2**63], [0.0, 1.0, 2.0, 3.0], f"row 3: segment_id {2**63} is not an int"),
    (np.array([0, 1, -2, 3]), [0.0, 1.0, 2.0, 3.0], "row 2: segment_id -2 is not an int"),
    ([0, 1, 2, 3], np.array([0.0, 1.0, 2.0, -math.inf]), "row 3: score -inf is not finite"),
])
def test_bad_columns_refused(segment_id, score, message):
    with pytest.raises(ValueError, match=f"^Judgments {message}"):
        Judgments(["w"] * 4, ["s"] * 4, segment_id, score)


class TestWorkerStats:
    def test_mean_and_sample_sd(self):
        _, stats, _ = _std(_raw("w", [50, 60, 70]))
        assert stats["w"].count == 3
        assert stats["w"].mean == 60.0
        assert stats["w"].sd == 10.0

    def test_identical_scores_sd_zero(self):
        _, stats, _ = _std(_raw("w", [40, 40, 40]))
        assert stats["w"].sd == 0.0
        assert stats["w"].mean == 40.0

    def test_single_judgment(self):
        _, stats, _ = _std(_raw("w", [80]))
        assert stats["w"].count == 1
        assert stats["w"].sd == 0.0


class TestStandardize:
    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            _std(_raw("w", [1, 2]), mode="robust")

    def test_center_subtracts_worker_mean(self):
        out, _, findings = _std(_raw("w", [50, 60, 70]), mode=CENTER)
        assert out.score.tolist() == [-10.0, 0.0, 10.0]
        assert findings == []

    def test_center_keeps_single_judgment_workers(self):
        out, _, findings = _std(_raw("w", [80]), mode=CENTER)
        assert len(out) == 1
        assert out.score.tolist() == [0.0]
        assert findings == []

    def test_zscore_known_values(self):
        out, stats, _ = _std(_raw("w", [50, 60, 70]))
        assert out.score.tolist() == [-1.0, 0.0, 1.0]
        assert stats["w"].sd == 10.0

    def test_zscore_drops_single_judgment_worker(self):
        out, stats, findings = _std(
            _raw("lonely", [80]) + _raw("w", [10, 30], start=10)
        )
        assert set(out.worker_id) == {"w"}
        assert "lonely" in stats
        [f] = findings
        assert f.code == "dropped-worker"
        assert "single judgment" in f.message

    def test_zscore_drops_constant_worker(self):
        out, _, findings = _std(
            _raw("flat", [55, 55, 55]) + _raw("w", [10, 30], start=10)
        )
        assert set(out.worker_id) == {"w"}
        [f] = findings
        assert f.code == "dropped-worker"
        assert "identically" in f.message

    def test_preserves_input_order(self):
        raw = _raw("b", [10, 30]) + _raw("a", [20, 60], start=5)
        out, _, _ = _std(raw)
        assert list(zip(out.worker_id, out.segment_id)) == [
            ("b", 0),
            ("b", 1),
            ("a", 5),
            ("a", 6),
        ]

    def test_two_workers_one_segment(self):
        # Worker A rates the shared segment 70 against a personal history of
        # 50/60/70; worker B rates it 51 against 51/63/47/39.  Their z scores
        # are 1.0 and 0.1, so the segment lands at 0.55.
        raw = [
            ("A", "sysX", 0, 70.0),
            ("A", "other", 1, 50.0),
            ("A", "other", 2, 60.0),
            ("B", "sysX", 0, 51.0),
            ("B", "other", 3, 63.0),
            ("B", "other", 4, 47.0),
            ("B", "other", 5, 39.0),
        ]
        out, stats, findings = _std(raw)
        assert findings == []
        assert stats["A"].sd == 10.0
        assert stats["B"].sd == 10.0
        da, _ = segment_da(out)
        [score] = [x for s, i, x, _ in segment_da_rows(da)[1] if (s, i) == ("sysX", 0)]
        assert abs(score - 0.55) < 1e-12

    @given(
        st.lists(
            st.lists(st.integers(0, 100), min_size=2, max_size=12),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_zscore_normalizes_each_worker(self, score_lists):
        raw = []
        for w, scores in enumerate(score_lists):
            raw.extend(_raw(f"w{w}", scores, start=100 * w))
        out, _, _ = _std(raw)
        by_worker: dict[str, list[float]] = {}
        for worker_id, score in zip(out.worker_id, out.score):
            by_worker.setdefault(worker_id, []).append(score)
        for vals in by_worker.values():
            n = len(vals)
            assert abs(math.fsum(vals) / n) < 1e-12
            sd = math.sqrt(math.fsum(v * v for v in vals) / (n - 1))
            assert abs(sd - 1.0) < 1e-9

    @given(
        st.lists(st.integers(0, 50), min_size=2, max_size=10).filter(
            lambda s: len(set(s)) > 1
        ),
        st.integers(1, 4),
        st.integers(0, 100),
    )
    @settings(max_examples=60, deadline=None)
    def test_zscore_affine_invariant(self, scores, a, b):
        out1, _, _ = _std(_raw("w", scores))
        out2, _, _ = _std(_raw("w", [a * s + b for s in scores]))
        for x1, x2 in zip(out1.score, out2.score, strict=True):
            assert abs(x1 - x2) < 1e-9


class TestSegmentDA:
    def test_empty_input(self):
        da, findings = segment_da(_judgments([]))
        assert len(da) == 0
        [f] = findings
        assert f.code == "no-data"

    def test_groups_and_sorts(self):
        out, _, _ = _std(
            _raw("w1", [10, 90], system="b") + _raw("w2", [30, 70], system="a")
        )
        da, findings = segment_da(out)
        assert findings == []
        assert da.keys() == [
            ("a", 0),
            ("a", 1),
            ("b", 0),
            ("b", 1),
        ]
        assert da.count.tolist() == [1, 1, 1, 1]

    def test_min_count_excludes_sparse(self):
        judgments, _, _ = _std(
            _raw("w1", [10, 90]) + _raw("w2", [30, 70])  # both cover 0 and 1
            + _raw("w3", [20, 80], start=1)  # only w3 covers segment 2
        )
        da, findings = segment_da(judgments, min_count=2)
        assert da.keys() == [("sys", 0), ("sys", 1)]
        assert da.count.tolist() == [2, 3]
        [f] = findings
        assert f.code == "sparse-segments"
        assert "sys:2" in f.message

    def test_sparse_listing_truncated(self):
        judgments, _, _ = _std(_raw("w", list(range(0, 99, 7))))
        da, findings = segment_da(judgments, min_count=2)
        assert len(da) == 0
        [f] = findings
        assert f.message.endswith(", ...")
        assert "sys:4" in f.message
        assert "sys:5" not in f.message

    def test_bad_min_count(self):
        with pytest.raises(ValueError):
            segment_da(_judgments([]), min_count=0)


class TestSystemDA:
    def test_means_and_sorting(self):
        out, _, _ = _std(
            _raw("w1", [10, 90], system="b") + _raw("w2", [30, 70], system="a")
        )
        da, _ = segment_da(out)
        sys_da = system_da(da)
        assert sys_da.keys() == ["a", "b"]
        assert sys_da.count.tolist() == [2, 2]
        # Each system saw one worker's full z-scored output, so its mean is 0.
        assert all(abs(x) < 1e-15 for x in sys_da.score)

    def test_maps(self):
        out, _, _ = _std(_raw("w", [10, 50, 90]))
        seg, _ = segment_da(out)
        sys = system_da(seg)
        assert set(seg.keys()) == {("sys", 0), ("sys", 1), ("sys", 2)}
        assert set(sys.keys()) == {"sys"}


class TestTsv:
    def test_segment_header_and_rows(self):
        out, _, _ = _std(_raw("w", [50, 60, 70]))
        da, _ = segment_da(out)
        text = render_table(segment_da_rows(da), tsv=True)
        lines = text.split("\n")
        assert lines[0] == "system_id\tsegment_id\tda_score\tn_judgments"
        assert lines[1].split("\t") == ["sys", "0", "-1.0", "1"]
        assert lines[2].split("\t") == ["sys", "1", "0.0", "1"]
        assert text.endswith("\n")

    def test_system_header(self):
        out, _, _ = _std(_raw("w", [50, 60, 70]))
        da, _ = segment_da(out)
        text = render_table(system_da_rows(system_da(da)), tsv=True)
        assert text.split("\n")[0] == "system_id\tda_score\tn_segments"


class TestSimConfig:
    def test_valid(self):
        cfg = AssessorSimConfig((1, 2, 4), 8, 0.9)
        assert cfg.shuffle_seed == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(i_values=(), n_total=8, target_r=0.9),
            dict(i_values=(0, 1), n_total=8, target_r=0.9),
            dict(i_values=(2, 2), n_total=8, target_r=0.9),
            dict(i_values=(3, 1), n_total=8, target_r=0.9),
            dict(i_values=(1, 2), n_total=2, target_r=0.9),
            dict(i_values=(1, 2), n_total=8, target_r=0.0),
            dict(i_values=(1, 2), n_total=8, target_r=1.5),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            AssessorSimConfig(**kwargs)


def _sim_items(values_per_item, n_total):
    """One worker per judgment so standardization never interferes."""
    raw = []
    w = 0
    for idx, vals in enumerate(values_per_item):
        for v in vals:
            raw.append((f"w{w}", "sysA", idx, float(v)))
            w += 1
    assert all(len(v) >= n_total for v in values_per_item)
    return raw


class TestSimulation:
    def test_zero_noise_curve(self):
        # Judges agree exactly within each item, so halving the panel
        # changes nothing and every candidate hits r = 1.
        raw = _sim_items([[10] * 4, [20] * 4, [30] * 4], 4)
        curve = simulate_assessor_count(
            _judgments(raw), AssessorSimConfig((1, 2), 4, 0.9)
        )
        assert curve.points == ((1, 1.0), (2, 1.0))
        assert curve.recommended == 1
        assert curve.n_items == 3

    def test_no_candidate_reaches_target(self):
        raw = _sim_items(
            [[10, 90, 10, 90], [20, 20, 80, 80], [5, 95, 40, 60]], 4
        )
        curve = simulate_assessor_count(
            _judgments(raw), AssessorSimConfig((1,), 4, 1.0, shuffle_seed=3)
        )
        assert curve.points[0][1] < 1.0
        assert curve.recommended is None

    def test_too_few_items(self):
        raw = _sim_items([[10] * 4, [20] * 4], 4)
        with pytest.raises(InsufficientDataError, match="at least 3"):
            simulate_assessor_count(_judgments(raw), AssessorSimConfig((1,), 4, 0.9))

    def test_short_item_named(self):
        raw = _sim_items([[10] * 4, [20] * 4, [30] * 4], 4)
        raw += [("x1", "sysA", 9, 50.0) for _ in range(3)]
        with pytest.raises(
            InsufficientDataError,
            match=r"item \('sysA', 9\) has 3 judgments; n_total=4 required",
        ):
            simulate_assessor_count(_judgments(raw), AssessorSimConfig((1,), 4, 0.9))

    def test_seed_determinism(self):
        raw = _sim_items(
            [[10, 90, 30, 70], [20, 40, 80, 60], [5, 95, 45, 55], [15, 85, 35, 65]],
            4,
        )
        cfg = AssessorSimConfig((1, 2), 4, 0.99, shuffle_seed=7)
        c1 = simulate_assessor_count(_judgments(raw), cfg)
        c2 = simulate_assessor_count(_judgments(raw), cfg)
        assert c1 == c2
        assert isinstance(c1, AssessorCurve)

    def test_recommended_is_first_qualifying(self):
        raw = _sim_items([[10] * 6, [20] * 6, [30] * 6], 6)
        curve = simulate_assessor_count(
            _judgments(raw), AssessorSimConfig((2, 4), 6, 1.0)
        )
        assert curve.recommended == 2


# Tied scores, raw -0 next to 0, values whose fsum mean is inexact (0.1),
# and workers with one judgment or one value.
_SCORES = st.sampled_from([0.0, -0.0, 0.1, 33.3, 50.0, 100.0]) | st.floats(0, 100)
# Ids whose sorted order is not their numeric, first-seen or case-folded
# order ("B" sorts before "a", "é" after every ASCII id), and sparse segment
# ids past the small-int cache and far past the item count.
_WORKERS = ("w9", "w10", "b", "a", "B", "é")
_SYSTEMS = ("b", "a10", "a9", "B", "é")
_SEGMENTS = (0, 3, 257, 70_000, 2**40)


@st.composite
def _worker_rows(draw):
    rows = []
    for worker in draw(st.lists(st.sampled_from(_WORKERS), min_size=1, unique=True)):
        kind = draw(st.sampled_from(["single", "constant", "mixed"]))
        n = 1 if kind == "single" else draw(st.integers(2, 8))
        if kind == "constant":
            scores = [draw(_SCORES)] * n
        else:
            scores = draw(st.lists(_SCORES, min_size=n, max_size=n))
        for x in scores:
            system = draw(st.sampled_from(_SYSTEMS))
            rows.append((worker, system, draw(st.sampled_from(_SEGMENTS)), x))
    return draw(st.permutations(rows))


@st.composite
def _item_rows(draw, n_total=4):
    """Items on several systems; an item drawn twice gets both sets of
    judgments, so some items hold far more than n_total."""
    rows = []
    for _ in range(draw(st.integers(2, 6))):
        system = draw(st.sampled_from(_SYSTEMS))
        segment = draw(st.sampled_from(_SEGMENTS))
        n = draw(st.integers(n_total - 1, n_total + 3))
        for x in draw(st.lists(_SCORES, min_size=n, max_size=n)):
            rows.append((f"w{len(rows) % 3}", system, segment, x))
    return draw(st.permutations(rows))


def _plain(x):
    """x with each Judgments in it as a tuple of its columns, each column a
    tuple of plain str, int or float values."""
    if isinstance(x, Judgments):
        assert x.segment_id.dtype == np.int64 and x.score.dtype == np.float64
        return tuple(
            tuple(getattr(x, name).tolist() if name in ("segment_id", "score")
                  else getattr(x, name))
            for name in ("worker_id", "system_id", "segment_id", "score")
        )
    if isinstance(x, tuple):
        return tuple(map(_plain, x))
    return x


def _same(a, b):
    """== plus equal reprs, which also tells -0.0 from 0.0; Judgments are
    compared column by column."""
    a, b = _plain(a), _plain(b)
    assert a == b
    assert repr(a) == repr(b)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (InsufficientDataError, UndefinedCorrelationError) as exc:
        return type(exc), str(exc)


class TestMatchesPerRowOracle:
    @given(_worker_rows())
    @settings(max_examples=200, deadline=None)
    def test_worker_stats(self, rows):
        _same(standardize_judgments(_judgments(rows))[1], worker_stats_naive(rows))

    @given(_worker_rows(), st.sampled_from([CENTER, ZSCORE]), st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_standardize_and_segment_da(self, rows, mode, min_count):
        out, stats, findings = standardize_judgments(_judgments(rows), mode)
        kept, stats_naive, findings_naive = standardize_naive(rows, mode)
        _same((out, stats, findings), (_judgments(kept), stats_naive, findings_naive))
        for judgments, judged in ((out, kept), (_judgments(rows), rows)):
            da, sparse = segment_da(judgments, min_count)
            segment_rows, sparse_naive = segment_da_naive(judged, min_count)
            _same(
                (segment_da_rows(da)[1], system_da_rows(system_da(da))[1], sparse),
                (segment_rows, system_da_naive(segment_rows), sparse_naive),
            )

    @given(_item_rows(), st.integers(0, 3))
    @settings(max_examples=200, deadline=None)
    def test_simulate_assessor_count(self, rows, seed):
        config = AssessorSimConfig((1, 2), 4, 0.5, shuffle_seed=seed)
        _same(
            _outcome(simulate_assessor_count, _judgments(rows), config),
            _outcome(simulate_assessor_count_naive, rows, config),
        )


def test_group_values_across_chunk_boundaries():
    # groups shorter than, as long as and longer than a chunk, the longest
    # spanning several, their rows shuffled through the file
    sizes = [1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 7]
    key = np.repeat(np.arange(len(sizes)), sizes)
    np.random.default_rng(0).shuffle(key)
    column = np.random.default_rng(1).random(len(key))
    values = list(_group_values(_grouping(key), column))
    assert values == [column[key == group].tolist() for group in range(len(sizes))]


def _study_config(rows, directory, **settings) -> StudyConfig:
    """A study whose judgments file holds rows; only load_das reads it."""
    path = Path(directory) / "judgments.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        out = csv.writer(fh)
        out.writerow(["worker_id", "system_id", "segment_id", "score"])
        out.writerows((w, s, i, repr(x)) for w, s, i, x in rows)
    return StudyConfig(
        source="", references=("",), outputs_dir="", judgments=str(path), **settings
    )


class TestRunPathMatchesPerRowOracle:
    """report.load_das and the simulation run gives its raw rows, from a
    judgments file, against the per-row oracles."""

    @given(_worker_rows(), st.sampled_from([CENTER, ZSCORE]), st.integers(1, 3))
    @settings(max_examples=100, deadline=None)
    def test_load_das(self, rows, mode, min_count):
        with tempfile.TemporaryDirectory() as directory:
            das = load_das(
                _study_config(rows, directory, standardize=mode, min_count=min_count)
            )
        kept, stats, findings = standardize_naive(rows, mode)
        segment_rows, sparse = segment_da_naive(kept, min_count)
        _same(das.raw, _judgments(rows))
        assert das.worker_count == len(stats)
        _same((segment_da_rows(das.segment)[1], das.findings), (segment_rows, findings + sparse))
        _same(system_da_rows(das.system)[1], system_da_naive(segment_rows))

    @given(_item_rows(), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_simulation(self, rows, seed):
        config = AssessorSimConfig((1, 2), 4, 0.5, shuffle_seed=seed)
        with tempfile.TemporaryDirectory() as directory:
            das = load_das(_study_config(rows, directory, assessor_sim=config))
        _same(
            _outcome(simulate_assessor_count, das.raw, config),
            _outcome(simulate_assessor_count_naive, rows, config),
        )


def test_memory_per_row(tmp_path):
    # A dense-intl-shaped study: 2,000 items with 15 ratings each from a pool
    # of 300 workers, two of whom rate everything alike and are dropped.
    rng = random.Random(0)
    rows = [
        (f"w{w:03}", f"sys{item % 20:02}", item // 20, float(rng.randint(0, 100)))
        for item in range(2000)
        for w in rng.sample(range(300), 15)
    ]
    rows = [(w, s, i, 50.0 if w in ("w000", "w001") else x) for w, s, i, x in rows]
    sim = AssessorSimConfig((1, 2, 4, 8), 15, 0.9)
    config = _study_config(rows, tmp_path, assessor_sim=sim)
    load_das(config)  # warm the csv module and numpy first

    def traced(fn):
        tracemalloc.start()
        try:
            out = fn()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, retained / len(rows), peak / len(rows)

    raw, retained, _ = traced(lambda: load_judgments(config.judgments))
    assert len(raw) == 30_000
    das, kept, peak = traced(lambda: load_das(config))
    _, _, transient = traced(lambda: simulate_assessor_count(das.raw, sim))
    # Bytes per row under Python 3.11 and numpy 2.4, with the ids held as
    # int32 codes and one item grouping, made at load and taken by mask for
    # the kept rows: 29.5 retained by the load, a load_das peak of 64.8 and
    # a simulation transient of 13.0.  With the ids as lists of str and the
    # rows sorted by item in each stage they were 33.2, 106.0 and 38.9.
    # load_das keeps the raw rows and 1.8 B/row of DA (31.3 in all): a
    # score, a count and two cell indexes per item.  With DA also held as
    # one slotted record per item it kept 37.9 and peaked at 69.4.
    assert retained < 32
    assert kept < 34
    assert peak < 85
    assert transient < 20
