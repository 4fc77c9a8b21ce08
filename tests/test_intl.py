"""The intl tokenizer against the whole-Unicode regex oracle in oracles.py."""

from hypothesis import given, settings
from hypothesis import strategies as st

from metricval import TokenizationScheme, tokenize
from metricval import metrics

from oracles import tokenize_intl_naive

# Characters whose category decides a split, and the ones that must not:
# astral code points, combining marks, lone surrogates, non-ASCII digits of
# all three number categories, currency and math symbols, CJK punctuation
# and several kinds of whitespace.
intl_text = st.text(
    alphabet=st.one_of(
        st.sampled_from(list("ab1.,-$ \t\n　、。「」½Ⅻ٣€∑́")),
        st.characters(),
        st.characters(min_codepoint=0x10000),
        st.characters(whitelist_categories=["Cs"]),
        st.characters(whitelist_categories=["Mn", "Mc", "Me"]),
        st.characters(whitelist_categories=["Nd", "Nl", "No"]),
        st.characters(whitelist_categories=["Sc", "Sm", "Sk", "So"]),
        st.characters(min_codepoint=0x3000, max_codepoint=0x303F),
    ),
    max_size=24,
)


@settings(max_examples=300, deadline=None)
@given(intl_text, st.booleans())
def test_matches_regex_oracle(text, lowercase):
    expected = tokenize_intl_naive(text.lower() if lowercase else text)
    assert tokenize(text, TokenizationScheme("intl", lowercase)) == tuple(expected)


def test_first_call_classifies_only_seen_code_points():
    metrics._CLASSES.clear()
    text = "Le prix: 3,50 €, «très» cher!"
    tokens = tokenize(text, TokenizationScheme("intl"))
    assert tokens == ("Le", "prix", ":", "3,50", "€", ",", "«", "très", "»", "cher", "!")
    assert 0 < len(metrics._CLASSES) <= len(set(text))
