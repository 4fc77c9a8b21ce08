"""Config documents: strict parsing and a lossless echo."""

import json
import re
from dataclasses import MISSING, fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metricval import BleuConfig, ChrfConfig, ConfigError, config_signature
from metricval.report import (
    StudyConfig,
    config_from_mapping,
    config_to_mapping,
    run_study,
)

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


def test_left_out_keys_keep_the_dataclass_defaults():
    config = config_from_mapping(BASE)
    for f in fields(StudyConfig):
        if f.default is not MISSING:
            assert getattr(config, f.name) == f.default, f.name
    assert config == config_from_mapping(config_to_mapping(config))


@pytest.mark.parametrize("metric_id", ["b\tleu", "b\rleu", "b\nleu", "#x", " #x"])
def test_metric_id_a_score_dump_cannot_carry(metric_id):
    # a score dump writes ids raw into a tab-separated format where '#'
    # starts a comment: a tab split the rows, a leading '#' lost the metric
    with pytest.raises(ConfigError, match=re.escape(repr(metric_id))):
        config_from_mapping({**BASE, "metrics": {metric_id: {"kind": "bleu"}}})
    assert config_from_mapping({**BASE, "metrics": {"b#1": {"kind": "bleu"}}})


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
    with pytest.raises(ConfigError, match=f"{key!r} takes finite JSON numbers"):
        config_from_mapping({**BASE, "metrics": {"m": {"kind": kind, key: value}}})
    field = {"k": "smooth_k", "beta": "beta"}[key]
    with pytest.raises(ConfigError, match="positive and finite"):
        {"bleu": BleuConfig, "chrf": ChrfConfig}[kind](**{field: value})


@pytest.mark.parametrize("key", ["source", "outputs_dir", "judgments"])
def test_empty_input_path_is_a_config_error(tmp_path, key):
    # Path("").exists() is True, so an empty path once reached the loaders
    # and ended in a raw IsADirectoryError
    paths = {k: str(tmp_path / name) for k, name in
             [("source", "src.txt"), ("outputs_dir", "outputs"), ("judgments", "j.csv")]}
    for path in (*paths.values(), tmp_path / "ref.txt"):
        Path(path).touch()
    doc = {**paths, "references": [str(tmp_path / "ref.txt")], key: ""}
    with pytest.raises(ConfigError, match="configured path does not exist: ''"):
        run_study(config_from_mapping(doc))


@pytest.mark.parametrize("doc, key", [
    ({"k": 2.5}, "k"),
    ({"k": True}, "k"),
    ({"min_count": 1.9}, "min_count"),
    ({"min_systems": "5"}, "min_systems"),
    ({"seed": 1.0}, "seed"),
    ({"metrics": {"b": {"kind": "bleu", "max_n": 2.5}}}, "max_n"),
    ({"metrics": {"b": {"kind": "bleu", "min_order": True}}}, "min_order"),
    ({"metrics": {"c": {"kind": "chrf", "char_n": 6.0}}}, "char_n"),
    ({"assessor_sim": {"i_values": [1, 2.0], "n_total": 4, "target_r": 0.5}},
     "i_values"),
    ({"assessor_sim": {"i_values": [1], "n_total": False, "target_r": 0.5}},
     "n_total"),
])
def test_integer_keys_take_json_integers(doc, key):
    # int() once ran "k": 2.5 with k = 2 and echoed 2, and "k": true as 1
    with pytest.raises(ConfigError, match=f"{key!r} takes JSON integers"):
        config_from_mapping({**BASE, **doc})


@pytest.mark.parametrize("doc, key, expected", [
    ({"alpha": "0.2"}, "alpha", "finite JSON numbers"),
    ({"alpha": True}, "alpha", "finite JSON numbers"),
    ({"alpha": float("nan")}, "alpha", "finite JSON numbers"),
    ({"metrics": {"c": {"kind": "chrf", "beta": "3"}}}, "beta", "finite JSON numbers"),
    ({"metrics": {"b": {"kind": "bleu", "k": "1"}}}, "k", "finite JSON numbers"),
    ({"assessor_sim": {"i_values": [1], "n_total": 2, "target_r": "0.9"}},
     "target_r", "finite JSON numbers"),
    ({"language_pair": 7}, "language_pair", "JSON strings"),
    ({"tokenizer": None}, "tokenizer", "JSON strings"),
    ({"metrics": {"b": {"kind": "bleu", "smoothing": 1}}}, "smoothing", "JSON strings"),
    ({"source": 5}, "source", "JSON strings"),
    ({"metadata": True}, "metadata", "JSON strings"),
    ({"judgments": None}, "judgments", "JSON strings"),
    ({"references": [1, 2]}, "references", "JSON strings"),
    ({"external_scores": {"a": 1}}, "external_scores", "JSON strings"),
])
def test_float_and_string_keys_take_their_json_type(doc, key, expected):
    # float() and str() once ran "alpha": "0.2" with alpha 0.2 and echoed
    # "language_pair": 7 as "7"; str() ran "source": 5 as '5', "metadata":
    # true as 'True' and "external_scores": {"a": 1} as ('a',)
    with pytest.raises(ConfigError, match=f"{key!r} takes {expected}"):
        config_from_mapping({**BASE, **doc})


def test_path_keys_take_a_string_or_their_list():
    config = config_from_mapping(
        {**BASE, "references": "ref.txt", "metadata": None, "external_scores": ["x.tsv"]}
    )
    assert config.references == ("ref.txt",)
    assert config.metadata is None
    assert config.external_scores == ("x.tsv",)


@pytest.mark.parametrize("kind, default", [("bleu", BleuConfig()), ("chrf", ChrfConfig())])
def test_metric_block_of_only_its_kind_builds_the_config_defaults(kind, default):
    config = config_from_mapping({**BASE, "metrics": {"m": {"kind": kind}}})
    # repr tells 2.0 from 2, which == does not
    assert repr(config.metrics["m"]) == repr(default)


def test_float_keys_take_json_integers_as_floats():
    config = config_from_mapping({**BASE, "metrics": {"c": {"kind": "chrf", "beta": 3}}})
    beta = config.metrics["c"].beta
    assert beta == 3.0 and type(beta) is float


def test_missing_input_is_named():
    doc = {key: value for key, value in BASE.items() if key != "judgments"}
    with pytest.raises(ConfigError) as exc:
        config_from_mapping(doc)
    assert str(exc.value) == "missing required config key(s): ['judgments']"


SIM = {"n_total": 6, "target_r": 0.5}


@pytest.mark.parametrize("value, expected", [(5, (5,)), ([1, 3], (1, 3))])
def test_i_values_take_an_integer_or_their_list(value, expected):
    config = config_from_mapping({**BASE, "assessor_sim": {**SIM, "i_values": value}})
    assert config.assessor_sim.i_values == expected
    assert config_from_mapping(config_to_mapping(config)) == config


@pytest.mark.parametrize("value", ["12", {"1": 2}])
def test_i_values_name_the_value_given(value):
    # both were once iterated item by item, so the error named '1'
    with pytest.raises(ConfigError) as exc:
        config_from_mapping({**BASE, "assessor_sim": {**SIM, "i_values": value}})
    assert str(exc.value) == f"config key 'i_values' takes JSON integers, got {value!r}"
