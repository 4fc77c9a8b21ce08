"""Config documents: strict parsing and a lossless echo."""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricval import ConfigError, config_signature
from metricval.report import config_from_mapping, config_to_mapping

BASE = {
    "source": "src.txt",
    "references": ["ref.txt"],
    "outputs_dir": "outputs",
    "judgments": "judgments.csv",
}

positive = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False)
bleu = st.fixed_dictionaries({
    "kind": st.just("bleu"),
    "max_n": st.integers(1, 6),
    "smoothing": st.sampled_from(["none", "exp-decay", "add-1"]),
    "k": positive,
    "min_order": st.integers(1, 4),
    "brevity_penalty": st.booleans(),
    "truncation": st.booleans(),
})
chrf = st.fixed_dictionaries({
    "kind": st.just("chrf"),
    "char_n": st.integers(1, 8),
    "beta": positive,
    "whitespace": st.booleans(),
})


def _signatures(config):
    return {
        metric_id: config_signature(conf, config.scheme)
        for metric_id, conf in config.metrics.items()
    }


@given(
    st.dictionaries(st.sampled_from(["m1", "m2", "m3"]), bleu | chrf, min_size=1),
    st.sampled_from(["whitespace", "intl", "char"]),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_echo_round_trip_keeps_signatures(metrics, tokenizer, lowercase, bonferroni):
    config = config_from_mapping({
        **BASE, "metrics": metrics, "tokenizer": tokenizer,
        "lowercase": lowercase, "bonferroni": bonferroni,
    })
    echoed = json.loads(json.dumps(config_to_mapping(config)))
    again = config_from_mapping(echoed)
    assert _signatures(again) == _signatures(config)
    # add-k's k and min_order are dropped with other smoothings; the rest
    # of the config must come back unchanged
    assert replace(again, metrics=config.metrics) == config


def test_echo_keeps_every_digit_of_smooth_k():
    # ':g' formatting once echoed 0.123456789 as 0.123457
    config = config_from_mapping(
        {**BASE, "metrics": {"b": {"kind": "bleu", "k": 0.123456789}}}
    )
    assert config_to_mapping(config)["metrics"]["b"]["smoothing"] == "add-0.123456789"


@pytest.mark.parametrize("key", ["lowercase", "bonferroni"])
@pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
def test_top_level_flags_must_be_json_booleans(key, value):
    with pytest.raises(ConfigError, match=f"{key!r} must be true or false"):
        config_from_mapping({**BASE, key: value})


@pytest.mark.parametrize(
    "kind, key",
    [("bleu", "brevity_penalty"), ("bleu", "truncation"), ("chrf", "whitespace")],
)
def test_metric_flags_must_be_json_booleans(kind, key):
    # bool("false") is True, so a quoted false once switched the flag on
    with pytest.raises(ConfigError, match=f"{key!r} must be true or false"):
        config_from_mapping({**BASE, "metrics": {"m": {"kind": kind, key: "false"}}})


@pytest.mark.parametrize("kind, key", [("bleu", "k"), ("chrf", "beta")])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_metric_numbers_rejected(kind, key, value):
    # NaN once passed the positivity check and crashed the signature
    with pytest.raises(ConfigError, match="positive and finite"):
        config_from_mapping({**BASE, "metrics": {"m": {"kind": kind, key: value}}})
