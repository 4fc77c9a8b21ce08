import csv
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metricval
from metricval.metrics import (
    CHUNK_ROWS,
    MetricScores,
    MetricScoreTable,
    _score_chunks,
    dump_scores,
)
from metricval.report import _json_chunks, _json_doc, _table_chunks, render_table


class Real(float):
    pass


class Record(dict):
    pass


# strings that look like the structure the writer re-indents
TRICKY = ["],\n      [", "],\n    [", "[\n  ", '"', "\\", "\r\n", "\r", "é", "\U0001f600"]

PLAIN = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(),
    st.sampled_from(TRICKY),
    st.text(alphabet=st.sampled_from("ab,[]{}:\"\\\r\n é\U0001f600")),
)
LEAVES = st.one_of(PLAIN, st.floats().map(Real))
# mostly tables the writer encodes in one call, some it must hand back
ROWS = st.lists(
    st.one_of(
        st.lists(PLAIN, min_size=1, max_size=4),
        st.tuples(PLAIN, PLAIN),
        st.lists(LEAVES, max_size=3),
    ),
    max_size=5,
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(LEAVES, max_size=5),
        ROWS,
        st.dictionaries(st.one_of(st.text(max_size=3), st.sampled_from(TRICKY)),
                        children, max_size=4),
        st.dictionaries(st.text(max_size=3), children, max_size=3).map(Record),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
    )


VALUES = st.recursive(LEAVES, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(VALUES)
@example({"rows": [["],\n      [", 1], ("a", float("nan")), [float("-inf"), None]]})
@example({"deep": {"rows": [(1,), [2, 3]], "empty": [[], {}, ()], "row": [[]]}})
def test_json_doc_is_json_dumps_indent_2(value):
    expected = json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    assert _json_doc(value) == expected


def _dumps(value):
    return json.dumps(value, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def _rows(n):
    return [[f"sys{i % 7}", i, i / 7, None, "é"] for i in range(n)]


@pytest.mark.parametrize("n", [CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 2 * CHUNK_ROWS + 1])
def test_json_doc_across_chunk_boundaries(n):
    value = {"rows": _rows(n), "flat": list(range(n)), "deep": {"rows": _rows(n)}}
    assert _json_doc(value) == _dumps(value)
    assert _json_doc(_rows(n)) == _dumps(_rows(n))


# each chunk holds at most CHUNK_ROWS rows, so a 20k-row table is written in
# chunks of at most a quarter of the file
BIG = 20_000


def _bounded(chunks):
    chunks = list(chunks)
    text = "".join(chunks)
    assert max(map(len, chunks)) <= len(text) / 4
    return text


def test_json_chunks_are_bounded():
    value = {"scores": _rows(BIG), "winners": list(range(BIG))}
    assert _bounded(_json_chunks(value)) == _dumps(value)


@pytest.mark.parametrize("tsv", [False, True])
def test_table_chunks_are_bounded(tsv):
    table = ("system_id", "i", "x", "none", "text"), _rows(BIG)
    out = io.StringIO()
    writer = csv.writer(
        out, delimiter="\t" if tsv else ",", lineterminator="\n" if tsv else "\r\n"
    )
    writer.writerow(table[0])
    writer.writerows(table[1])
    assert _bounded(_table_chunks(table, tsv)) == out.getvalue()
    assert render_table(table, tsv) == out.getvalue()
    assert list(_table_chunks((("a", "b"), []), tsv)) == ["a\tb\n" if tsv else "a,b\r\n"]


def test_score_chunks_are_bounded():
    segment = {(f"sys{i % 5}", i): i / 3 for i in range(BIG)}
    table = MetricScoreTable(m=MetricScores("sig", segment=segment))
    expected = "# signature: m\tsig\n" + "".join(
        f"m\t{s}\t{i}\t{v!r}\n" for (s, i), v in sorted(segment.items())
    )
    assert _bounded(_score_chunks(table)) == expected
    assert dump_scores(table) == expected
    assert dump_scores(MetricScoreTable()) == ""


def test_every_public_name_resolves():
    missing = [name for name in metricval.__all__ if not hasattr(metricval, name)]
    assert missing == []
    assert len(set(metricval.__all__)) == len(metricval.__all__)
