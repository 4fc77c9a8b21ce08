import ast
import csv
import io
import json
import math
import random
import re
import tracemalloc
from pathlib import Path
from types import ModuleType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metricval
from metricval import conditional_distribution, emit_report, load_config, run_study
from metricval.metrics import (
    CHUNK_ROWS,
    MetricScores,
    MetricScoreTable,
    _cell_rows,
    _score_chunks,
    dump_scores,
)
from metricval.report import _json_chunks, _json_doc, _json_value, _table_chunks, render_table


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


@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS, CHUNK_ROWS + 1])
def test_json_value_writes_a_float64_array_as_its_list(n):
    values = [(-1) ** i * i / 7 for i in range(n)]
    column = np.array(values, np.float64)
    assert "".join(_json_value(column, "\n")) == json.dumps(values, indent=2)
    nested = "".join(_json_value({"a": {"values": column}}, "\n"))
    assert nested == json.dumps({"a": {"values": values}}, indent=2)


@pytest.mark.parametrize("n", [0, 1, CHUNK_ROWS, CHUNK_ROWS + 1])
@pytest.mark.parametrize("n_axes", [1, 2])
def test_cell_rows_are_a_per_cell_loop_in_slices(n, n_axes):
    rng = np.random.default_rng(n)
    axes = (("a", "b", "sys\u00e9"), np.array([0, 3, 7, 2**40], np.int64))[:n_axes]
    cells = tuple(rng.integers(0, len(axis), n) for axis in axes)
    score = rng.random(n)
    score[n // 2:n // 2 + 1] = np.nan
    count = rng.integers(1, 9, n)
    label = np.array(["bad", "good"], object)[rng.integers(0, 2, n)]
    chunks = list(_cell_rows(axes, cells, score, count, label, lead=("m",)))
    assert len(chunks) == -(-n // CHUNK_ROWS)
    assert all(1 <= len(rows) <= CHUNK_ROWS for rows in chunks)
    expected = []
    for k in range(n):
        key = (axes[0][cells[0][k]], *(int(axes[1][cells[1][k]]) for _ in axes[1:]))
        value = None if math.isnan(score[k]) else float(score[k])
        expected.append(("m", *key, value, int(count[k]), str(label[k])))
    rows = [row for rows in chunks for row in rows]
    assert rows == expected
    # plain Python values only, so every writer sees what the loop gives
    assert [tuple(map(type, row)) for row in rows] == [tuple(map(type, row)) for row in expected]
    assert None in (row[-3] for row in rows) or n == 0


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


def test_readme_imports_resolve():
    # every `from metricval... import ...` in README's python blocks runs,
    # and a name it takes from the package itself is in __all__
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    imports = [
        node for block in blocks for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "metricval"
    ]
    assert len(imports) >= 3
    for node in imports:
        exec(compile(ast.Module([node], type_ignores=[]), "README.md", "exec"), {})
    top = [alias.name for node in imports if node.module == "metricval" for alias in node.names]
    assert set(top) - set(metricval.__all__) == set()
    assert metricval.__all__ == sorted(metricval.__all__)
    assert [n for n in metricval.__all__ if isinstance(getattr(metricval, n), ModuleType)] == []


def _wide_study(root, segments, systems=10, externals=10):
    """A config for systems x segments items, each judged once, scored by
    one BLEU and `externals` external segment metrics, all seeded."""
    rng = random.Random(segments)
    root.mkdir()
    words = [f"w{i}" for i in range(40)]
    refs = [rng.sample(words, 8) for _ in range(segments)]
    (root / "src.txt").write_text("".join(f"source {j}\n" for j in range(segments)))
    (root / "ref.txt").write_text("".join(" ".join(r) + "\n" for r in refs))
    (root / "out").mkdir()
    for k in range(systems):
        hyps = (" ".join(r[:8 - k % 4] + rng.sample(words, k % 4)) for r in refs)
        (root / "out" / f"sys{k}.txt").write_text("".join(h + "\n" for h in hyps))
    judgments = ["worker_id,system_id,segment_id,score"] + [
        f"w{rng.randrange(50)},sys{k},{j},{rng.randint(0, 100)}"
        for k in range(systems) for j in range(segments)
    ]
    (root / "judgments.csv").write_text("\n".join(judgments) + "\n")
    (root / "ext.tsv").write_text("".join(
        f"ext{m}\tsys{k}\t{j}\t{rng.random()!r}\n"
        for m in range(externals) for k in range(systems) for j in range(segments)
    ))
    config = {
        "source": str(root / "src.txt"), "references": [str(root / "ref.txt")],
        "outputs_dir": str(root / "out"), "judgments": str(root / "judgments.csv"),
        "external_scores": [str(root / "ext.tsv")], "metrics": {"bleu": {"kind": "bleu"}},
        "segment_coef": "pearson",
    }
    (root / "config.json").write_text(json.dumps(config))
    return load_config(root / "config.json")


def _traced(fn):
    """fn()'s result, and the bytes it left allocated and its peak, under
    tracemalloc."""
    tracemalloc.start()
    try:
        out = fn()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, retained, peak


def test_memory_per_binned_point(tmp_path):
    # 11 metrics over 3,000 binned points, and the same study at 6,000
    small, large = (run_study(_wide_study(tmp_path / str(n), n)) for n in (300, 600))
    bins = small.results["bins"][0]
    points, metric_ids = len(bins.study.da), bins.study.metric_ids
    assert points == 3000 and len(metric_ids) == 11
    conditional_distribution(bins, metric_ids[0])  # warm numpy's percentile first
    _, retained, _ = _traced(lambda: [conditional_distribution(bins, m) for m in metric_ids])

    def emit_peak(bundle):
        emit_report(bundle, "json", tmp_path / "warm")
        return _traced(lambda: emit_report(bundle, "json", tmp_path / "json"))[2]

    growth = emit_peak(large) / emit_peak(small)
    # Under Python 3.11 and numpy 2.4, each bin's scores held as a float64
    # array retain 8.6 B per binned point per metric, and emit_report's peak
    # above the bundle (0.66 MB) grows 1.09-fold from 3,000 to 6,000 DA
    # points.  With the scores as a tuple of floats, and segment_da and
    # bins.points built as whole lists at emit, they were 32.3 B and
    # 1.63-fold (1.41 MB).
    assert retained / (points * len(metric_ids)) <= 12
    assert growth < 1.25
