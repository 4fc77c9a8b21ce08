"""The full study pipeline: configuration, execution, and report emission.

run_study strings the modules together: ingest and validate the corpus,
standardize judgments into DA scores, score systems, correlate, run the
significance matrix, and produce the diagnostic analyses.  Analyses whose
preconditions fail are skipped with an explanatory finding rather than
silently omitted, and fatal ingestion problems raise.  Its stages
(load_corpus, load_das, build_table, system_significance) take the same
StudyConfig and are what every CLI subcommand runs, so a subcommand differs
from a full run only in which stages it runs and how it prints them.

A ReportBundle is self-describing: it embeds the full configuration echo,
the seed, and every scoring signature, and emitting the same bundle twice
produces byte-identical files.  Each table has one row function (the
*_rows functions); render_table writes every CSV and TSV from them, and
report.json takes the same rows.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from . import analysis as an
from . import corpus as cp
from . import correlation as corr
from . import judgments as jd
from . import metrics as mt
from . import significance as sg
from .errors import (
    ConfigError,
    DataError,
    InsufficientDataError,
    StatsError,
    utf8_input,
)
from .findings import Finding, error, first_items, warning
from .metrics import CHUNK_ROWS

FORMATS = ("json", "csv-dir", "text")

_DEFAULT_METRICS: dict[str, mt.BleuConfig | mt.ChrfConfig] = {
    "bleu": mt.DEFAULT_SENTENCE_BLEU,
    "chrf": mt.DEFAULT_CHRF,
}


@dataclass(frozen=True)
class StudyConfig:
    """Everything a study run depends on, in one declarative object.

    Attributes mirror the config-file keys one to one; see from_mapping.
    """

    source: str
    references: tuple[str, ...]
    outputs_dir: str
    judgments: str
    language_pair: str = ""
    metadata: str | None = None
    external_scores: tuple[str, ...] = ()
    standardize: str = jd.ZSCORE
    min_count: int = 1
    metrics: Mapping[str, mt.BleuConfig | mt.ChrfConfig] = field(
        default_factory=lambda: dict(_DEFAULT_METRICS)
    )
    tokenizer: str = "whitespace"
    lowercase: bool = False
    aggregate: str = "mean"
    alpha: float = 0.05
    segment_coef: str = "kendall"
    system_coef: str = "pearson"
    bonferroni: bool = False
    k: int = 5
    min_systems: int = cp.DEFAULT_MIN_SYSTEMS
    assessor_sim: jd.AssessorSimConfig | None = None
    seed: int = 0
    out_dir: str = "study-out"
    format: str = "json"

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.standardize not in (jd.CENTER, jd.ZSCORE):
            raise ConfigError(f"unknown standardize mode {self.standardize!r}")
        if self.aggregate not in mt.AGGREGATE_MODES:
            raise ConfigError(f"unknown aggregate {self.aggregate!r}")
        if self.tokenizer not in mt.TOKENIZER_NAMES:
            raise ConfigError(f"unknown tokenizer {self.tokenizer!r}")
        for which in (self.segment_coef, self.system_coef):
            if which not in corr.COEFFICIENTS:
                raise ConfigError(f"unknown coefficient {which!r}")
        for key in ("k", "min_count", "min_systems"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)}")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown format {self.format!r}")
        if not self.metrics:
            raise ConfigError("at least one metric must be configured")
        for metric_id in self.metrics:
            # a score dump writes ids raw: tab-separated, '#' starts a comment
            if any(c in metric_id for c in "\t\r\n") or metric_id.lstrip()[:1] == "#":
                raise ConfigError(
                    f"metric id {metric_id!r} cannot hold a tab or line break "
                    "or start with '#'"
                )

    @property
    def scheme(self) -> mt.TokenizationScheme:
        return mt.TokenizationScheme(self.tokenizer, self.lowercase)


CONFIG_KEYS = frozenset(f.name for f in fields(StudyConfig))


_EXPECTED = {bool: "must be true or false", int: "takes JSON integers",
             float: "takes finite JSON numbers", str: "takes JSON strings"}


def _value(key: str, value: Any, kind: type) -> Any:
    """A JSON value of kind bool, int, float (a finite number, an integer
    converted) or str; a boolean is never a number."""
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ConfigError(f"config key {key!r} {_EXPECTED[kind]}, got {value!r}")
    return value


_METRIC_KEYS = {
    "bleu": {"kind", "max_n", "smoothing", "k", "min_order", "brevity_penalty",
             "truncation"},
    "chrf": {"kind", "char_n", "beta", "whitespace"},
}


def _metric_from_mapping(metric_id: str, data: Mapping[str, Any]):
    if not isinstance(data, Mapping):
        raise ConfigError(f"metric {metric_id!r} must be a mapping")
    kind = data.get("kind")
    if kind not in ("bleu", "chrf"):
        raise ConfigError(
            f"metric {metric_id!r}: kind must be 'bleu' or 'chrf', got {kind!r}"
        )
    unknown = set(data) - _METRIC_KEYS[kind]
    if unknown:
        raise ConfigError(f"metric {metric_id!r}: unknown key(s) {sorted(unknown)}")

    def get(key: str, default: Any) -> Any:
        return _value(key, data.get(key, default), type(default))

    if kind == "chrf":
        return mt.ChrfConfig(
            char_n=get("char_n", 6),
            beta=get("beta", 2.0),
            include_whitespace=get("whitespace", False),
        )
    smooth, smooth_k, min_order = mt.parse_smoothing(get("smoothing", "add-1"))
    return mt.BleuConfig(
        max_n=get("max_n", 4),
        smoothing=smooth,
        smooth_k=get("k", smooth_k),
        smooth_min_order=get("min_order", min_order),
        use_brevity_penalty=get("brevity_penalty", True),
        effective_n_truncation=get("truncation", True),
    )


def _metric_to_mapping(config) -> dict[str, Any]:
    if isinstance(config, mt.BleuConfig):
        return {
            "kind": "bleu",
            "max_n": config.max_n,
            "smoothing": mt.smoothing_token(config),
            "brevity_penalty": config.use_brevity_penalty,
            "truncation": config.effective_n_truncation,
        }
    return {
        "kind": "chrf",
        "char_n": config.char_n,
        "beta": config.beta,
        "whitespace": config.include_whitespace,
    }


def config_from_mapping(data: Mapping[str, Any]) -> StudyConfig:
    """Build a StudyConfig from a parsed config document.

    Raises:
        ConfigError: unknown keys, missing required keys, or invalid values.
    """
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    missing = [
        key for key in ("source", "references", "outputs_dir", "judgments")
        if key not in data
    ]
    if missing:
        raise ConfigError(f"missing required config key(s): {missing}")
    for key in ("metrics", "assessor_sim"):
        if data.get(key) is not None and not isinstance(data[key], Mapping):
            raise ConfigError(f"config key {key!r} must be a mapping")

    def paths(value) -> tuple[str, ...]:  # one path or a list of them
        return (value,) if isinstance(value, str) else tuple(str(p) for p in value)

    # every conversion below sits in the try, so a wrong type is a
    # ConfigError, never a traceback
    try:
        # a key left out keeps its StudyConfig default; a given value must
        # be a JSON value of the default's type
        given = {
            f.name: _value(f.name, data[f.name], type(f.default))
            for f in fields(StudyConfig)
            if f.name in data and isinstance(f.default, (str, int, float))
        }
        if data.get("metrics") is not None:
            given["metrics"] = {
                metric_id: _metric_from_mapping(metric_id, metric_conf)
                for metric_id, metric_conf in data["metrics"].items()
            }
        sim_data = data.get("assessor_sim")
        sim = None
        if sim_data is not None:
            unknown = set(sim_data) - {"i_values", "n_total", "target_r"}
            if unknown:
                raise ConfigError(f"assessor_sim: unknown key(s) {sorted(unknown)}")
            try:
                sim = jd.AssessorSimConfig(
                    i_values=tuple(
                        _value("i_values", i, int) for i in sim_data["i_values"]
                    ),
                    n_total=_value("n_total", sim_data["n_total"], int),
                    target_r=_value("target_r", sim_data["target_r"], float),
                    shuffle_seed=given.get("seed", StudyConfig.seed),
                )
            except KeyError as exc:
                raise ConfigError(f"assessor_sim lacks key {exc}") from None
            except ValueError as exc:
                raise ConfigError(f"assessor_sim: {exc}") from None
        return StudyConfig(
            **given,
            source=str(data["source"]),
            references=paths(data["references"]),
            outputs_dir=str(data["outputs_dir"]),
            judgments=str(data["judgments"]),
            metadata=str(data["metadata"]) if data.get("metadata") else None,
            external_scores=paths(data.get("external_scores", ())),
            assessor_sim=sim,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from None


def config_to_mapping(config: StudyConfig) -> dict[str, Any]:
    """Canonical echo of a config; feeding it back reproduces the run."""
    sim = config.assessor_sim
    return {
        **{f.name: getattr(config, f.name) for f in fields(StudyConfig)},
        "references": list(config.references),
        "external_scores": list(config.external_scores),
        "metrics": {
            metric_id: _metric_to_mapping(conf)
            for metric_id, conf in sorted(config.metrics.items())
        },
        "assessor_sim": None if sim is None else {
            "i_values": list(sim.i_values),
            "n_total": sim.n_total,
            "target_r": sim.target_r,
        },
    }


def read_config_mapping(path) -> dict[str, Any]:
    """The JSON object in a config file, not yet validated.

    Raises:
        ConfigError: unreadable file, not UTF-8, invalid JSON, or not a JSON
            object.
    """
    try:
        with utf8_input(path, ConfigError), open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return data


def load_config(path) -> StudyConfig:
    """Read and validate a JSON config file.

    Raises:
        ConfigError: unreadable or invalid document.
    """
    return config_from_mapping(read_config_mapping(path))


@dataclass
class ReportBundle:
    """Everything a study produced, ready for emission.

    Skipped analyses leave their slot empty (None or {}) and explain
    themselves in findings; no result is ever silently missing.
    """

    config: StudyConfig
    findings: list[Finding]
    corpus_summary: dict[str, Any]
    worker_count: int
    segment_da: mt.SparseScores
    system_da: mt.SparseScores
    table: mt.MetricScoreTable
    correlations: list[tuple[str, corr.CorrelationResult]]
    matrix: sg.SignificanceMatrix | None
    winners: tuple[str, ...]
    bins: an.BinAssignment | None
    bin_summaries: dict[str, dict[str, an.BinSummary]]
    failures: dict[str, list[an.FailureCase]]
    groups: dict[str, dict[str, list[an.GroupCorrelation]]]
    agreements: dict[str, an.AgreementReport]
    assessor_curve: jd.AssessorCurve | None


def _check_paths(config: StudyConfig) -> None:
    paths = [config.source, *config.references, config.outputs_dir,
             config.judgments, *config.external_scores]
    if config.metadata:
        paths.append(config.metadata)
    for p in paths:
        # Path("") is the working directory, which exists
        if not p or not Path(p).exists():
            raise ConfigError(f"configured path does not exist: {p!r}")


class StudyDAs(NamedTuple):
    """What load_das makes of the judgments file."""

    raw: jd.Judgments | None  # None once run_study has simulated with it
    worker_count: int
    segment: mt.SparseScores
    system: mt.SparseScores
    findings: list[Finding]


def load_corpus(config: StudyConfig) -> cp.EvaluationCorpus:
    """Stage: the test set and system outputs, with metadata when configured.

    Raises:
        DataError: malformed or misaligned inputs.
    """
    test_set = cp.load_testset(config.source, config.references, config.language_pair)
    outputs = cp.load_output_dir(config.outputs_dir, test_set)
    corpus = cp.EvaluationCorpus(test_set, outputs)
    if config.metadata:
        corpus = cp.attach_system_metadata(
            corpus, cp.load_system_metadata(config.metadata)
        )
    return corpus


def load_das(config: StudyConfig) -> StudyDAs:
    """Stage: judgments standardized per worker and averaged into DA scores.

    Raises:
        DataError: malformed judgments.
    """
    raw = jd.load_judgments(config.judgments)
    standardized, worker_stats, findings = jd.standardize_judgments(
        raw, config.standardize
    )
    segment, f = jd.segment_da(standardized, config.min_count)
    del standardized  # a copy of nearly every row, which nothing reads again
    return StudyDAs(
        raw, len(worker_stats), segment, jd.system_da(segment), [*findings, *f]
    )


def binned_da(
    corpus: cp.EvaluationCorpus, da: mt.SparseScores
) -> tuple[mt.SparseScores, list[Finding]]:
    """Stage: the segment DA points binning takes, those on the corpus's
    system x segment grid, with a warning naming the others, which no
    metric can score."""
    systems = set(corpus.outputs)
    on_grid = (
        np.array([s in systems for s in da.axes[0]], bool)[da.cells[0]]
        & (da.axes[1] < len(corpus.test_set))[da.cells[1]]
    )
    if on_grid.all():
        return da, []
    off = da.keys(~on_grid)
    return mt.SparseScores(
        da.axes, tuple(cell[on_grid] for cell in da.cells), da.score[on_grid],
        da.count[on_grid],
    ), [warning(
        f"{len(off)} judged (system, segment) item(s) are not in the corpus and "
        f"are left out of binning: {first_items(off)}",
        code="off-corpus-judgments",
    )]


def build_table(
    config: StudyConfig, corpus: cp.EvaluationCorpus
) -> mt.MetricScoreTable:
    """Stage: every system scored by the configured metrics, merged in one
    pass with the external score files, which are all read first.

    Raises:
        DataError: a malformed external score file, a metric with two
            provenances, or a score that two sources share.
    """
    table = mt.score_systems(corpus, config.metrics, config.scheme, config.aggregate)
    externals = [
        mt.load_external_metric_scores(path, corpus) for path in config.external_scores
    ]
    return mt.merge_tables(table, *externals)


def system_significance(
    config: StudyConfig, table: mt.MetricScoreTable, system_da: mt.SparseScores
) -> sg.SignificanceMatrix:
    """Stage: Williams tests between every pair of metrics, over the systems
    scored by DA and by every metric.

    Raises:
        StatsError: fewer than 4 such systems, or degenerate correlations.
    """
    ids = table.metric_ids()
    grids = [table[m].system.on(system_da.axes, system_da.cells) for m in ids]
    shared = ~np.isnan([system_da.score, *grids]).any(axis=0)
    n = int(np.count_nonzero(shared))
    if n < 4:
        raise InsufficientDataError(
            f"{n} systems scored by DA and every metric; the test needs at least 4"
        )
    return sg.significance_matrix(
        {m: grid[shared].tolist() for m, grid in zip(ids, grids)},
        system_da.score[shared].tolist(), config.alpha, bonferroni=config.bonferroni,
    )


def correlation_levels(
    config: StudyConfig, das: StudyDAs
) -> tuple[tuple[str, str, Callable, mt.SparseScores], ...]:
    """(level, configured coefficient, correlation function, DA) for
    the segment and the system level, as run and correlate compute them."""
    return (
        ("segment", config.segment_coef, corr.segment_correlation, das.segment),
        ("system", config.system_coef,
         partial(corr.system_correlation, min_systems=config.min_systems),
         das.system),
    )


def run_study(config: StudyConfig) -> ReportBundle:
    """Execute the whole pipeline for one configuration.

    Ingestion and alignment problems raise.  Each downstream analysis runs
    under one skip policy: a StatsError or DataError skips it, leaving an
    error-severity finding with the analysis's stable code and the reason,
    and any other exception propagates.

    Raises:
        ConfigError: a configured path is missing.
        DataError: malformed or misaligned inputs.
    """
    _check_paths(config)
    corpus = load_corpus(config)
    findings = cp.validate_corpus(corpus, config.min_systems)
    das = load_das(config)
    findings.extend(das.findings)

    @contextmanager
    def skipped(what: str, code: str, into: list[Finding] = findings):
        try:
            yield
        except (StatsError, DataError) as exc:
            into.append(error(f"{what} skipped: {exc}", code=code))

    # The simulation is the one reader of the raw judgments: it runs first,
    # so they are let go before scoring, and its finding still comes last.
    curve = None
    simulation_findings: list[Finding] = []
    if config.assessor_sim is not None:
        with skipped("assessor simulation", "simulation-skipped", simulation_findings):
            curve = jd.simulate_assessor_count(das.raw, config.assessor_sim)
    das = das._replace(raw=None)
    segment_da, system_da = das.segment, das.system
    table = build_table(config, corpus)

    correlations: list[tuple[str, corr.CorrelationResult]] = []
    for metric_id in table.metric_ids():
        for level, kind, fn, points in correlation_levels(config, das):
            with skipped(f"{level} correlation for {metric_id!r}", "correlation-skipped"):
                result, f = fn(table, points, metric_id, kind)
                findings.extend(f)
                correlations.append((metric_id, result))

    matrix = None
    winners: tuple[str, ...] = ()
    with skipped("significance matrix", "significance-skipped"):
        matrix = system_significance(config, table, system_da)
        winners = sg.winner_set(matrix)

    bins = None
    bin_summaries: dict[str, dict[str, an.BinSummary]] = {}
    failures: dict[str, list[an.FailureCase]] = {}
    binned, f = binned_da(corpus, segment_da)
    findings.extend(f)
    with skipped("binning", "bins-skipped"):
        bins = an.tertile_bins(binned)
    if bins is not None:
        for metric_id in table.metric_ids():
            with skipped(f"bin analyses for {metric_id!r}", "bins-skipped"):
                bin_summaries[metric_id] = an.conditional_distribution(
                    table, metric_id, bins
                )
                cases, f = an.failure_cases(corpus, table, metric_id, bins, config.k)
                findings.extend(f)
                failures[metric_id] = cases

    groups: dict[str, dict[str, list[an.GroupCorrelation]]] = {}
    agreements: dict[str, an.AgreementReport] = {}
    for metric_id in table.metric_ids():
        per_field: dict[str, list[an.GroupCorrelation]] = {}
        for group_by in an.GROUP_FIELDS:
            with skipped(
                f"grouped correlation for {metric_id!r} by {group_by}", "groups-skipped"
            ):
                rows, f = an.grouped_correlation(
                    system_da, table, metric_id, corpus.meta, group_by,
                    config.system_coef,
                )
                findings.extend(f)
                per_field[group_by] = rows
        if per_field:
            groups[metric_id] = per_field
        with skipped(f"agreement report for {metric_id!r}", "agreement-skipped"):
            agreements[metric_id] = an.kendall_agreement_report(
                system_da, table, metric_id
            )
    findings.extend(simulation_findings)

    summary = {
        "language_pair": corpus.test_set.language_pair,
        "n_segments": len(corpus.test_set),
        "n_systems": len(corpus.outputs),
        "systems": corpus.system_ids(),
        "systems_with_metadata": sorted(corpus.meta),
    }
    return ReportBundle(
        config=config,
        findings=findings,
        corpus_summary=summary,
        worker_count=das.worker_count,
        segment_da=segment_da,
        system_da=system_da,
        table=table,
        correlations=correlations,
        matrix=matrix,
        winners=winners,
        bins=bins,
        bin_summaries=bin_summaries,
        failures=failures,
        groups=groups,
        agreements=agreements,
        assessor_curve=curve,
    )


# A table is its column names and its rows of plain values: str, int, float
# or None.
Table = tuple[tuple[str, ...], list]


def render_table(table: Table, tsv: bool = False) -> str:
    """The one table writer: ',' and CRLF for .csv, tab and LF for .tsv.

    A field is quoted only when it must be, None is an empty cell and a
    float is written as its repr, so a table reads back with csv.reader.
    """
    return "".join(_table_chunks(table, tsv))


def _table_chunks(table: Table, tsv: bool = False) -> Iterator[str]:
    """render_table's text in chunks of at most CHUNK_ROWS rows; the first
    carries the header."""
    header, rows = table
    out = io.StringIO()
    writer = csv.writer(
        out, delimiter="\t" if tsv else ",", lineterminator="\n" if tsv else "\r\n"
    )
    writer.writerow(header)
    for start in range(0, max(len(rows), 1), CHUNK_ROWS):
        writer.writerows(rows[start:start + CHUNK_ROWS])
        yield out.getvalue()
        out.seek(0)
        out.truncate()


def findings_rows(findings: Iterable[Finding]) -> Table:
    return ("severity", "code", "message"), [
        (f.severity, f.code, f.message) for f in findings
    ]


def segment_da_rows(da: mt.SparseScores) -> Table:
    return ("system_id", "segment_id", "da_score", "n_judgments"), [
        (*key, score, count)
        for key, score, count in zip(da.keys(), da.score.tolist(), da.count.tolist())
    ]


def system_da_rows(da: mt.SparseScores) -> Table:
    return ("system_id", "da_score", "n_segments"), list(
        zip(da.keys(), da.score.tolist(), da.count.tolist())
    )


def correlations_rows(results: Iterable[tuple[str, corr.CorrelationResult]]) -> Table:
    return ("metric", "kind", "level", "scope", "n", "value"), [
        (metric_id, r.kind, r.level, r.scope, r.n, r.value) for metric_id, r in results
    ]


def significance_rows(matrix: sg.SignificanceMatrix) -> Table:
    """The p-value matrix with an r column; the diagonal is empty."""
    ids = matrix.metric_ids
    return ("metric", "r", *ids), [
        (i, matrix.correlations[i], *(None if i == j else matrix.p[(i, j)] for j in ids))
        for i in ids
    ]


def bins_rows(
    bins: an.BinAssignment, table: mt.MetricScoreTable, metric_id: str
) -> Table:
    """Bin membership; a point the metric did not score has no metric_score."""
    scores = table[metric_id].segment.on(bins.da.axes, bins.da.cells)
    return ("system_id", "segment_id", "da", "metric_score", "bin"), bins.rows(scores)


def groups_rows(groups: Iterable[an.GroupCorrelation]) -> Table:
    """Grouped correlations; a flagged group has no kind and no value."""
    return ("group", "kind", "n_systems", "value", "flag"), [
        (g.group, g.result.kind if g.result else "", g.n_systems,
         g.result.value if g.result else None, g.flag)
        for g in groups
    ]


def agreement_rows(reports: Iterable[an.AgreementReport]) -> Table:
    return ("metric", "tau", "concordant", "discordant", "n_systems", "interpretation"), [
        (a.metric_id, a.tau, a.concordant, a.discordant, a.n_systems, a.interpretation)
        for a in reports
    ]


def assessor_curve_rows(curve: jd.AssessorCurve) -> Table:
    """r for each candidate i, then the recommended i ('none' when none is)."""
    rec = "none" if curve.recommended is None else curve.recommended
    return ("i", "r"), [*curve.points, ("# recommended", rec)]


def _records(table: Table) -> list[dict[str, Any]]:
    header, rows = table
    return [dict(zip(header, row)) for row in rows]


def _fields(record, *drop: str) -> dict[str, Any]:
    """A dataclass record's fields by name; shallow, so no value is copied."""
    return {name: value for name, value in vars(record).items() if name not in drop}


def _matrix_to_dict(matrix: sg.SignificanceMatrix | None) -> dict[str, Any]:
    if matrix is None:
        return {}
    return {
        "metrics": list(matrix.metric_ids),
        "correlations": {m: matrix.correlations[m] for m in matrix.metric_ids},
        "p": [[i, j, matrix.p[(i, j)]] for i, j in sorted(matrix.p)],
        "n": matrix.n,
        "alpha": matrix.alpha,
        "effective_alpha": matrix.effective_alpha,
        "bonferroni": matrix.bonferroni,
    }


def _provenance(bundle: ReportBundle) -> dict[str, Any]:
    config, table = config_to_mapping(bundle.config), bundle.table
    del config["out_dir"], config["format"]
    return {
        "config": config,
        "seed": bundle.config.seed,
        "standardize": bundle.config.standardize,
        "signatures": {m: table[m].provenance for m in table.metric_ids()},
    }


def _bundle_dict(bundle: ReportBundle) -> dict[str, Any]:
    """Canonical JSON-ready form of a bundle; every key always present.

    The config echo drops out_dir and format: the report's content must not
    depend on where it is being written.  Each level's scores are an
    iterator of slices of the table's grids, which _json_chunks writes out
    one slice at a time.
    """
    bins = bundle.bins
    return {
        "provenance": _provenance(bundle),
        "corpus": bundle.corpus_summary,
        "worker_count": bundle.worker_count,
        "findings": _records(findings_rows(bundle.findings)),
        "segment_da": segment_da_rows(bundle.segment_da)[1],
        "system_da": system_da_rows(bundle.system_da)[1],
        "scores": {level: bundle.table._row_chunks(level) for level in ("segment", "system")},
        "correlations": _records(correlations_rows(bundle.correlations)),
        "significance": _matrix_to_dict(bundle.matrix),
        "winners": list(bundle.winners),
        "bins": {
            "boundaries": list(bins.boundaries) if bins else [],
            "points": bins.rows() if bins else [],
        },
        "bin_summaries": {
            metric_id: {
                label: _fields(b, "label") for label, b in sorted(summaries.items())
            }
            for metric_id, summaries in sorted(bundle.bin_summaries.items())
        },
        "failures": {
            metric_id: [_fields(c) for c in cases]
            for metric_id, cases in sorted(bundle.failures.items())
        },
        "groups": {
            metric_id: {
                group_by: _records(groups_rows(rows))
                for group_by, rows in sorted(per_field.items())
            }
            for metric_id, per_field in sorted(bundle.groups.items())
        },
        "agreements": {
            metric_id: _fields(a, "metric_id")
            for metric_id, a in sorted(bundle.agreements.items())
        },
        "assessor_curve": _fields(bundle.assessor_curve) if bundle.assessor_curve else {},
    }


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


_JSON_LEAVES = {str, int, float, bool, type(None)}


def _json_doc(data: Any) -> str:
    """json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\\n",
    byte for byte; see _json_chunks."""
    return "".join(_json_chunks(data))


def _json_chunks(data: Any) -> Iterator[str]:
    """_json_doc's text in chunks: each dict key, each leaf or nested value
    json.dumps hands back whole, and each flat list or list of flat rows in
    slices of CHUNK_ROWS items, each slice one C-encoder call (json.dumps
    has none with indent).  The item separator carries the newline and
    indent; exact, as every newline in JSON output is structural.
    """
    yield from _json_value(data, "\n")
    yield "\n"


def _json_value(v: Any, nl: str) -> Iterator[str]:
    """v's text at the indent in nl; an iterator stands for a list of flat
    rows, given as non-empty slices (a score table's _row_chunks)."""
    inner = nl + "  "  # nl is a newline and the indent v starts at
    if type(v) is dict and v and set(map(type, v)) == {str}:
        sep = "{"
        for k in sorted(v):
            yield f"{sep}{inner}{json.dumps(k, ensure_ascii=False)}: "
            yield from _json_value(v[k], inner)
            sep = ","
        yield nl + "}"
        return
    if isinstance(v, Iterator):
        yield from _json_rows(v, nl)
        return
    if type(v) in (list, tuple) and v:
        kinds = set(map(type, v))
        if kinds <= _JSON_LEAVES:
            head = "[" + inner
            for start in range(0, len(v), CHUNK_ROWS):
                yield head + _json_flat(v[start:start + CHUNK_ROWS], inner)[1:-1]
                head = "," + inner
            yield nl + "]"
            return
        rows = kinds <= {list, tuple} and all(v)
        if rows and set(map(type, chain.from_iterable(v))) <= _JSON_LEAVES:
            yield from _json_rows(
                (v[start:start + CHUNK_ROWS] for start in range(0, len(v), CHUNK_ROWS)), nl
            )
            return
    yield json.dumps(v, indent=2, sort_keys=True, ensure_ascii=False).replace("\n", nl)


def _json_rows(slices: Iterable[Sequence[Sequence]], nl: str) -> Iterator[str]:
    """A list of flat rows of JSON leaves, one C-encoder call per non-empty
    slice, with the `],<newline+indent>[` row boundaries spliced in."""
    inner = nl + "  "
    deep = inner + "  "
    head, row_sep = f"[{inner}[{deep}", f"{inner}],{inner}[{deep}"
    for rows in slices:
        body = _json_flat(rows, deep)[2:-2]
        yield head + body.replace(f"],{deep}[", row_sep)
        head = row_sep
    yield f"{inner}]{nl}]" if head == row_sep else "[]"


def _json_flat(v: list | tuple, nl: str) -> str:
    return json.dumps(v, ensure_ascii=False, separators=("," + nl, ": "))


def render_report(bundle: ReportBundle, format: str) -> str:
    """The json or text report as one document, as emit_report writes it.

    Raises:
        ConfigError: a format that is not one document.
    """
    return "".join(_report_chunks(bundle, format))


def _report_chunks(bundle: ReportBundle, format: str) -> Iterator[str]:
    """render_report's text in chunks.

    Raises:
        ConfigError: a format that is not one document, before any chunk.
    """
    if format == "json":
        return _json_chunks(_bundle_dict(bundle))
    if format == "text":
        return iter((_bundle_text(bundle),))
    raise ConfigError(f"format {format!r} is not a single document")


def _bundle_text(bundle: ReportBundle) -> str:
    lines = []
    summary = bundle.corpus_summary
    lines.append(
        f"study: {summary['language_pair'] or '(unnamed pair)'} | "
        f"{summary['n_systems']} systems | {summary['n_segments']} segments | "
        f"seed {bundle.config.seed}"
    )
    lines.append("")
    if bundle.findings:
        lines.append("findings:")
        lines.extend(f"  {f}" for f in bundle.findings)
        lines.append("")
    lines.append("correlations (metric, kind, level, n, value):")
    for metric_id, r in bundle.correlations:
        lines.append(f"  {metric_id}  {r.kind}  {r.level}  n={r.n}  {r.value:+.4f}")
    lines.append("")
    if bundle.matrix is not None:
        lines.append(
            f"significance grid (alpha={bundle.matrix.effective_alpha:g}, "
            f"n={bundle.matrix.n}; '*' = row beats column):"
        )
        lines.append(sg.matrix_to_text(bundle.matrix).rstrip("\n"))
        lines.append(f"winners: {json.dumps(list(bundle.winners))}")
        lines.append("")
    if bundle.bins is not None:
        low, high = bundle.bins.boundaries
        lines.append(f"DA tertile boundaries: {low:.4f}, {high:.4f}")
        for metric_id, summaries in sorted(bundle.bin_summaries.items()):
            parts = [
                f"{label}: median {summaries[label].median:.4f}"
                for label in an.BIN_LABELS
            ]
            lines.append(f"  {metric_id} per-bin medians | " + " | ".join(parts))
        lines.append("")
    for metric_id, a in sorted(bundle.agreements.items()):
        lines.append(f"agreement [{metric_id}]: tau={a.tau:.4f}; {a.interpretation}")
    if bundle.agreements:
        lines.append("")
    if bundle.assessor_curve is not None:
        points = ", ".join(f"r({i})={r:.4f}" for i, r in bundle.assessor_curve.points)
        rec = bundle.assessor_curve.recommended
        lines.append(
            f"assessor simulation: {points}; recommended i = "
            f"{rec if rec is not None else 'none'}"
        )
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def emit_report(
    bundle: ReportBundle, format: str, out_dir: str | Path
) -> list[Path]:
    """Write a bundle to disk; returns the files written.

    json writes a single report.json; csv-dir writes one file per table and
    a manifest.json enumerating them; text writes report.txt.
    Each file is written in chunks of at most CHUNK_ROWS rows under a
    temporary name in out_dir and renamed once whole, so a write that fails
    leaves no partial file and an earlier file of that name as it was.

    Raises:
        ConfigError: unknown format.
        DataError: csv-dir output for two metric ids that name the same
            files once every character outside [A-Za-z0-9_.-] becomes '_'.
    """
    if format not in FORMATS:
        raise ConfigError(f"unknown format {format!r}; expected one of {FORMATS}")
    if format == "csv-dir":
        slugs: dict[str, str] = {}
        for metric_id in bundle.table.metric_ids():
            other = slugs.setdefault(_slug(metric_id), metric_id)
            if other != metric_id:
                raise DataError(
                    f"metrics {other!r} and {metric_id!r} would write the same "
                    f"csv-dir files, named {_slug(metric_id)!r}"
                )
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def _write(name: str, chunks: Iterable[str]) -> None:
        path = out / name
        staged = out / f".{name}.{os.getpid()}.tmp"
        try:
            with open(staged, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
            os.replace(staged, path)
        except BaseException:
            staged.unlink(missing_ok=True)
            raise
        written.append(path)

    def _write_table(name: str, table: Table) -> None:
        _write(name, _table_chunks(table, tsv=name.endswith(".tsv")))

    if format != "csv-dir":
        name = "report.txt" if format == "text" else "report.json"
        _write(name, _report_chunks(bundle, format))
        return written

    _write("provenance.json", _json_chunks(_provenance(bundle)))
    _write_table("findings.csv", findings_rows(bundle.findings))
    _write_table("segment_da.tsv", segment_da_rows(bundle.segment_da))
    _write_table("system_da.tsv", system_da_rows(bundle.system_da))
    _write("scores.tsv", mt._score_chunks(bundle.table))
    _write_table("correlations.csv", correlations_rows(bundle.correlations))
    if bundle.matrix is not None:
        _write_table("significance.csv", significance_rows(bundle.matrix))
        _write("significance.txt", [sg.matrix_to_text(bundle.matrix)])
    _write("winners.json", [json.dumps(list(bundle.winners)) + "\n"])
    if bundle.bins is not None:
        for metric_id in bundle.table.metric_ids():
            _write_table(
                f"bins_{_slug(metric_id)}.csv",
                bins_rows(bundle.bins, bundle.table, metric_id),
            )
    for metric_id, cases in sorted(bundle.failures.items()):
        _write(f"failures_{_slug(metric_id)}.json", [an.failures_to_json(cases)])
    for metric_id, per_field in sorted(bundle.groups.items()):
        for group_by, rows in sorted(per_field.items()):
            _write_table(f"groups_{_slug(metric_id)}_{group_by}.csv", groups_rows(rows))
    if bundle.agreements:
        agreements = sorted(bundle.agreements.items())
        _write_table("agreement.csv", agreement_rows(a for _, a in agreements))
    if bundle.assessor_curve is not None:
        _write_table("assessor_curve.tsv", assessor_curve_rows(bundle.assessor_curve))
    manifest = sorted(p.name for p in written)
    _write("manifest.json", [json.dumps(manifest, indent=2) + "\n"])
    return written
