import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

import metricval
from metricval.report import _json_doc


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


def test_every_public_name_resolves():
    missing = [name for name in metricval.__all__ if not hasattr(metricval, name)]
    assert missing == []
    assert len(set(metricval.__all__)) == len(metricval.__all__)
