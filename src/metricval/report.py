"""The full study pipeline: configuration, execution, and report emission.

run_study strings the modules together: ingest and validate the corpus,
standardize judgments into DA scores, score systems, correlate, run the
significance matrix, and produce the diagnostic analyses.  Analyses whose
preconditions fail are skipped with an explanatory finding rather than
silently omitted, and fatal ingestion problems raise.  Its stages
(load_corpus, load_das, build_table, binned_da, system_significance) are
what every CLI subcommand runs, so a subcommand differs from a full run
only in which stages it runs and how it prints them.

Every analysis is declared once, as an Analysis record in ANALYSES: its
name, its skip finding code, its compute, and its report.json keys,
csv-dir files and text report lines.  run_study runs the records in order
and the json, csv-dir and text writers each loop over them.

A ReportBundle is self-describing: it embeds the full configuration echo,
the seed, and every scoring signature, and emitting the same bundle twice
produces byte-identical files.  Each table has one row function (the
*_rows functions); render_table writes every CSV and TSV from them, and
report.json takes the same rows.  The per-cell tables, scores, DA at both
levels and bin membership, are made CHUNK_ROWS rows at a time by the one
producer metrics._cell_rows (through _da_table, _bins_table and the score
table's _row_chunks), which every writer reads, so no writer holds a row
per point.
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
from itertools import chain, groupby
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

# The inputs every full study reads, and every configured path: each is
# checked to exist before any is read (_check_paths).
INPUT_KEYS = ("source", "references", "outputs_dir", "judgments")
PATH_KEYS = (*INPUT_KEYS, "external_scores", "metadata")
# The kind of each key of the assessor_sim block, as _value reads it.
SIM_KINDS = {"i_values": (int,), "n_total": int, "target_r": float}


@dataclass(frozen=True)
class StudyConfig:
    """Everything a study run depends on, in one declarative object.

    Attributes mirror the config-file keys one to one; see config_from_mapping.
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
        default_factory=lambda: dict(mt.KIND_DEFAULTS)
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
# The kind of each scalar config key, as _value reads it: its default's
# type, a path for an input, and a path or a list of them for a tuple.
CONFIG_KINDS = {
    **dict.fromkeys(INPUT_KEYS, str), "references": (str,),
    **{f.name: (str,) if type(f.default) is tuple else type(f.default)
       for f in fields(StudyConfig) if isinstance(f.default, (str, int, float, tuple))},
}


_EXPECTED = {bool: "must be true or false", int: "takes JSON integers",
             float: "takes finite JSON numbers", str: "takes JSON strings"}


def _value(key: str, value: Any, kind: type | tuple[type]) -> Any:
    """A JSON value of kind bool, int, float (a finite number, an integer
    converted) or str, a boolean never a number; for a list kind (item,),
    one value of the item kind or a JSON list of them, as a tuple."""
    if type(kind) is tuple:
        items = value if type(value) in (list, tuple) else [value]
        return tuple(_value(key, item, kind[0]) for item in items)
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind or (kind is float and not math.isfinite(value)):
        raise ConfigError(f"config key {key!r} {_EXPECTED[kind]}, got {value!r}")
    return value


def _block(where: str, data: Mapping[str, Any], kinds: Mapping[str, Any]) -> dict[str, Any]:
    """A config block's keys, each read by _value as its kind in kinds; a
    key kinds lacks is a ConfigError naming where."""
    unknown = set(data) - set(kinds)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown)}")
    return {key: _value(key, value, kinds[key]) for key, value in data.items()}


def _metric_from_mapping(metric_id: str, data: Mapping[str, Any]):
    """A config-file metric block: its kind's form, each key given a JSON
    value of its default's type, the others at the kind's defaults."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"metric {metric_id!r} must be a mapping")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in mt.KIND_DEFAULTS:
        raise ConfigError(
            f"metric {metric_id!r}: kind must be "
            f"{' or '.join(map(repr, mt.KIND_DEFAULTS))}, got {kind!r}"
        )
    form = mt.metric_form(mt.KIND_DEFAULTS[kind])
    kinds = {key: type(value) for key, value in {**form, **mt.FORM_EXTRAS[kind]}.items()}
    return mt.metric_from_form({**form, **_block(f"metric {metric_id!r}", data, kinds)})


def config_from_mapping(data: Mapping[str, Any]) -> StudyConfig:
    """Build a StudyConfig from a parsed config document.

    Raises:
        ConfigError: unknown keys, missing required keys, or invalid values.
    """
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
    missing = [key for key in INPUT_KEYS if key not in data]
    if missing:
        raise ConfigError(f"missing required config key(s): {missing}")
    for key in ("metrics", "assessor_sim"):
        if data.get(key) is not None and not isinstance(data[key], Mapping):
            raise ConfigError(f"config key {key!r} must be a mapping")

    # every conversion below sits in the try, so a wrong type is a
    # ConfigError, never a traceback
    try:
        # a key left out keeps its StudyConfig default; a given value must
        # be a JSON value of its kind
        given = {key: _value(key, data[key], kind)
                 for key, kind in CONFIG_KINDS.items() if key in data}
        if data.get("metrics") is not None:
            given["metrics"] = {
                metric_id: _metric_from_mapping(metric_id, metric_conf)
                for metric_id, metric_conf in data["metrics"].items()
            }
        if data.get("assessor_sim") is not None:
            sim = _block("assessor_sim", data["assessor_sim"], SIM_KINDS)
            missing = [key for key in SIM_KINDS if key not in sim]
            if missing:
                raise ConfigError(f"assessor_sim lacks key(s) {missing}")
            try:
                given["assessor_sim"] = jd.AssessorSimConfig(
                    **sim, shuffle_seed=given.get("seed", StudyConfig.seed)
                )
            except ValueError as exc:
                raise ConfigError(f"assessor_sim: {exc}") from None
        if data.get("metadata") is not None:  # null or "" for none
            given["metadata"] = _value("metadata", data["metadata"], str) or None
        return StudyConfig(**given)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config value: {exc}") from None


def config_to_mapping(config: StudyConfig) -> dict[str, Any]:
    """Canonical echo of a config; feeding it back reproduces the run."""
    sim = config.assessor_sim
    return {
        **{f.name: getattr(config, f.name) for f in fields(StudyConfig)},
        "metrics": {
            metric_id: mt.metric_form(conf)
            for metric_id, conf in sorted(config.metrics.items())
        },
        "assessor_sim": None if sim is None else {key: getattr(sim, key) for key in SIM_KINDS},
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

    results holds each analysis's result under its name in ANALYSES.  A
    skipped analysis leaves an empty result and explains itself in
    findings; no result is ever silently missing.
    """

    config: StudyConfig
    findings: list[Finding]
    corpus_summary: dict[str, Any]
    worker_count: int
    segment_da: mt.SparseScores
    system_da: mt.SparseScores
    table: mt.MetricScoreTable
    results: dict[str, Any]


def _check_paths(config: StudyConfig, keys: Iterable[str] = PATH_KEYS) -> None:
    """Every path configured under keys exists: an empty one is a ConfigError,
    one that does not exist a DataError."""
    for key in keys:
        value = getattr(config, key)
        for p in (value,) if isinstance(value, str) else value or ():
            if not p:  # Path("") is the working directory, which exists
                raise ConfigError(f"configured path does not exist: {p!r}")
            if not Path(p).exists():
                raise DataError(f"configured path does not exist: {p!r}")


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
    corpus: cp.EvaluationCorpus, segment: corr.Aligned
) -> tuple[corr.Aligned, list[Finding]]:
    """Stage: the segment level at the DA points binning takes, those on the
    corpus's system x segment grid, with a warning naming the others, which
    no metric can score."""
    da = segment.da
    systems = set(corpus.outputs)
    on_grid = (
        np.array([s in systems for s in da.axes[0]], bool)[da.cells[0]]
        & (da.axes[1] < len(corpus.test_set))[da.cells[1]]
    )
    if on_grid.all():
        return segment, []
    off = da.keys(~on_grid)
    return segment.masked(on_grid), [warning(
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
    config: StudyConfig, system: corr.Aligned
) -> sg.SignificanceMatrix:
    """Stage: Williams tests between every pair of metrics of system,
    aligned(table, system DA), over the systems every metric scores.

    Raises:
        StatsError: fewer than 4 such systems, or degenerate correlations.
    """
    shared = ~np.isnan(system.scores).any(axis=0)
    n = int(np.count_nonzero(shared))
    if n < 4:
        raise InsufficientDataError(
            f"{n} systems scored by DA and every metric; the test needs at least 4"
        )
    return sg.significance_matrix(
        {m: row[shared].tolist() for m, row in zip(system.metric_ids, system.scores)},
        system.da.score[shared].tolist(), config.alpha, bonferroni=config.bonferroni,
    )


def correlation_levels(
    config: StudyConfig, segment: corr.Aligned, system: corr.Aligned
) -> tuple[tuple[str, str, Callable, corr.Aligned], ...]:
    """(level, configured coefficient, correlation function, aligned level)
    for the segment and the system level, as run and correlate compute them."""
    return (
        ("segment", config.segment_coef, corr.segment_correlation, segment),
        ("system", config.system_coef,
         partial(corr.system_correlation, min_systems=config.min_systems),
         system),
    )


def run_study(config: StudyConfig) -> ReportBundle:
    """Execute the whole pipeline for one configuration.

    Ingestion and alignment problems raise.  Each downstream analysis runs
    under one skip policy: a StatsError or DataError skips it, leaving an
    error-severity finding with the analysis's stable code and the reason,
    and any other exception propagates.

    Raises:
        ConfigError: a configured path is empty.
        DataError: a configured path does not exist, or malformed or
            misaligned inputs.
    """
    _check_paths(config)
    corpus = load_corpus(config)
    findings = cp.validate_corpus(corpus, config.min_systems)
    das = load_das(config)
    findings.extend(das.findings)
    # The records that read the raw judgments run first, so those are let go
    # before scoring.
    ctx = Study(config, corpus, das.raw, None, None, [], {})
    _analyze(ctx, [a for a in ANALYSES if a.before_scoring])
    das, held = das._replace(raw=None), ctx.findings
    ctx = ctx._replace(raw=None, findings=findings)
    table = build_table(config, corpus)
    ctx = ctx._replace(segment=corr.aligned(table, das.segment),
                       system=corr.aligned(table, das.system))
    _analyze(ctx, [a for a in ANALYSES if not a.before_scoring])
    findings.extend(held)

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
        segment_da=das.segment,
        system_da=das.system,
        table=table,
        results=ctx.results,
    )


# A table is its column names and its rows of plain values: str, int, float
# or None, as a list or as an iterator of non-empty slices of rows.
Table = tuple[tuple[str, ...], list | Iterator[list]]


def render_table(table: Table, tsv: bool = False) -> str:
    """The one table writer: ',' and CRLF for .csv, tab and LF for .tsv.

    A field is quoted only when it must be, None is an empty cell and a
    float is written as its repr, so a table reads back with csv.reader.
    """
    return "".join(_table_chunks(table, tsv))


def _table_chunks(table: Table, tsv: bool = False) -> Iterator[str]:
    """render_table's text in chunks, one per slice of at most CHUNK_ROWS
    rows; the first carries the header."""
    header, rows = table
    out = io.StringIO()
    writer = csv.writer(
        out, delimiter="\t" if tsv else ",", lineterminator="\n" if tsv else "\r\n"
    )
    writer.writerow(header)
    for part in _slices(rows):
        writer.writerows(part)
        yield out.getvalue()
        out.seek(0)
        out.truncate()
    if out.tell():  # no rows: the header alone
        yield out.getvalue()


def _slices(rows: Sequence | Iterator[Sequence]) -> Iterator[Sequence]:
    """rows in non-empty slices of at most CHUNK_ROWS; an iterator is taken
    to be such slices already."""
    if isinstance(rows, Iterator):
        return rows
    return (rows[start:start + CHUNK_ROWS] for start in range(0, len(rows), CHUNK_ROWS))


def findings_rows(findings: Iterable[Finding]) -> Table:
    return ("severity", "code", "message"), [
        (f.severity, f.code, f.message) for f in findings
    ]


def segment_da_rows(da: mt.SparseScores) -> Table:
    return _listed(_da_table(da))


def system_da_rows(da: mt.SparseScores) -> Table:
    return _listed(_da_table(da))


def _da_table(da: mt.SparseScores) -> Table:
    """segment_da_rows's or system_da_rows's table, by da's level, its rows
    in slices of at most CHUNK_ROWS."""
    header = ("system_id", "segment_id", "da_score", "n_judgments")
    if len(da.axes) == 1:
        header = ("system_id", "da_score", "n_segments")
    return header, mt._cell_rows(da.axes, da.cells, da.score, da.count)


def _listed(table: Table) -> Table:
    """table with its rows in one list."""
    header, slices = table
    return header, [row for rows in slices for row in rows]


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


def bins_rows(bins: an.BinAssignment, metric_id: str) -> Table:
    """Bin membership; a point the metric did not score has no metric_score."""
    return _listed(_bins_table(bins, metric_id))


def _bins_table(bins: an.BinAssignment, metric_id: str) -> Table:
    """bins_rows's table, its rows in slices of at most CHUNK_ROWS."""
    return ("system_id", "segment_id", "da", "metric_score", "bin"), bins._row_chunks(metric_id)


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


class Study(NamedTuple):
    """What an analysis reads: raw is the judgments, None once the metrics
    are scored; segment and system are the table aligned with each level's
    DA, None before; findings are the study's so far, and results the
    earlier analyses' results by name."""

    config: StudyConfig
    corpus: cp.EvaluationCorpus
    raw: jd.Judgments | None
    segment: corr.Aligned | None
    system: corr.Aligned | None
    findings: list[Finding]
    results: dict[str, Any]


class Analysis(NamedTuple):
    """One analysis, declared once in ANALYSES.

    compute(ctx, skip) gives the result ReportBundle.results holds under
    name.  A per_metric record's compute(ctx, skip, metric_id) gives one
    metric's, kept by metric id unless None, and neighbouring per_metric
    records share one loop over the metrics.  In `with skip(what):` a
    StatsError or DataError becomes the finding "<what> skipped: <reason>"
    with code.  A before_scoring record reads ctx.raw and runs first; its
    findings still come after the others'.  json, files and text render a
    result as report.json keys, csv-dir files (name, table or text, each
    built as it is written, so one table is held at a time) and text
    report lines.
    """

    name: str
    code: str
    compute: Callable[..., Any]
    json: Callable[[Any], dict[str, Any]]
    files: Callable[[Any], Iterable[tuple[str, Table | str]]]
    text: Callable[[Any], list[str]] = lambda result: []
    per_metric: bool = False
    before_scoring: bool = False


def _analyze(ctx: Study, records: Iterable[Analysis]) -> None:
    """Run records in order into ctx.results, under run_study's skip policy."""

    @contextmanager
    def skipped(what: str, code: str):
        try:
            yield
        except (StatsError, DataError) as exc:
            ctx.findings.append(error(f"{what} skipped: {exc}", code=code))

    for per_metric, batch in groupby(records, lambda a: a.per_metric):
        batch = [(a, partial(skipped, code=a.code)) for a in batch]
        if not per_metric:
            for a, skip in batch:
                ctx.results[a.name] = a.compute(ctx, skip)
            continue
        for a, _ in batch:
            ctx.results[a.name] = {}
        for metric_id in ctx.system.metric_ids:
            for a, skip in batch:
                if (result := a.compute(ctx, skip, metric_id)) is not None:
                    ctx.results[a.name][metric_id] = result


def _correlations(ctx: Study, skip) -> list[tuple[str, corr.CorrelationResult]]:
    results = []
    for metric_id in ctx.system.metric_ids:
        for level, kind, fn, aligned in correlation_levels(ctx.config, ctx.segment, ctx.system):
            with skip(f"{level} correlation for {metric_id!r}"):
                result, f = fn(aligned, metric_id, kind)
                ctx.findings.extend(f)
                results.append((metric_id, result))
    return results


def _significance(ctx: Study, skip):
    """(the Williams matrix, the metrics no other beats); (None, ()) if skipped."""
    with skip("significance matrix"):
        matrix = system_significance(ctx.config, ctx.system)
        return matrix, sg.winner_set(matrix)
    return None, ()


def _bins(ctx: Study, skip):
    """(bins, bin summaries, failure cases) of the DA points on the corpus
    grid, the others named first; bins is None when binning is skipped."""
    binned, f = binned_da(ctx.corpus, ctx.segment)
    ctx.findings.extend(f)
    summaries: dict[str, dict[str, an.BinSummary]] = {}
    failures: dict[str, list[an.FailureCase]] = {}
    with skip("binning"):
        bins = an.tertile_bins(binned)
        for metric_id in binned.metric_ids:
            with skip(f"bin analyses for {metric_id!r}"):
                summaries[metric_id] = an.conditional_distribution(bins, metric_id)
                failures[metric_id], f = an.failure_cases(ctx.corpus, bins, metric_id, ctx.config.k)
                ctx.findings.extend(f)
        return bins, summaries, failures
    return None, summaries, failures


def _groups(ctx: Study, skip, metric_id: str):
    by_field = {}
    for group_by in an.GROUP_FIELDS:
        with skip(f"grouped correlation for {metric_id!r} by {group_by}"):
            rows, f = an.grouped_correlation(
                ctx.system, metric_id, ctx.corpus.meta, group_by, ctx.config.system_coef
            )
            ctx.findings.extend(f)
            by_field[group_by] = rows
    return by_field or None


def _agreement(ctx: Study, skip, metric_id: str):
    with skip(f"agreement report for {metric_id!r}"):
        return an.kendall_agreement_report(ctx.system, metric_id)


def _simulation(ctx: Study, skip):
    if ctx.config.assessor_sim is not None:
        with skip("assessor simulation"):
            return jd.simulate_assessor_count(ctx.raw, ctx.config.assessor_sim)


def _significance_files(result) -> list[tuple[str, Table | str]]:
    matrix, winners = result
    files = [("winners.json", json.dumps(list(winners), ensure_ascii=False) + "\n")]
    if matrix is None:
        return files
    return [("significance.csv", significance_rows(matrix)),
            ("significance.txt", sg.matrix_to_text(matrix)), *files]


def _significance_text(result) -> list[str]:
    matrix, winners = result
    return [
        f"significance grid (alpha={matrix.effective_alpha:g}, n={matrix.n}; "
        "'*' = row beats column):",
        sg.matrix_to_text(matrix).rstrip("\n"),
        f"winners: {json.dumps(list(winners), ensure_ascii=False)}",
        "",
    ] if matrix else []


def _bins_json(result) -> dict[str, Any]:
    bins, summaries, failures = result
    return {
        "bins": {"boundaries": list(bins.boundaries) if bins else [],
                 "points": bins._row_chunks() if bins else []},
        "bin_summaries": {
            metric_id: {label: _fields(b, "label") for label, b in sorted(by_label.items())}
            for metric_id, by_label in sorted(summaries.items())
        },
        "failures": {
            metric_id: [_fields(c) for c in cases] for metric_id, cases in sorted(failures.items())
        },
    }


def _bins_files(result) -> Iterator[tuple[str, Table | str]]:
    bins, _, failures = result
    if bins is not None:
        for m in bins.study.metric_ids:
            yield f"bins_{_slug(m)}.csv", _bins_table(bins, m)
        for m, cases in sorted(failures.items()):
            yield f"failures_{_slug(m)}.json", an.failures_to_json(cases)


def _bins_text(result) -> list[str]:
    bins, summaries, _ = result
    return ["DA tertile boundaries: {:.4f}, {:.4f}".format(*bins.boundaries), *(
        f"  {metric_id} per-bin medians | "
        + " | ".join(f"{b}: median {by_label[b].median:.4f}" for b in an.BIN_LABELS)
        for metric_id, by_label in sorted(summaries.items())
    ), ""] if bins else []


# Every analysis, in the order of the findings, the text report and the
# csv-dir files (README "Analyses").  A compute reaches each layer function
# through its module when it runs, so no record holds one.
ANALYSES = (
    Analysis(
        "correlations", "correlation-skipped", _correlations,
        lambda rows: {"correlations": _records(correlations_rows(rows))},
        lambda rows: [("correlations.csv", correlations_rows(rows))],
        lambda rows: ["correlations (metric, kind, level, n, value):", *(
            f"  {m}  {r.kind}  {r.level}  n={r.n}  {r.value:+.4f}" for m, r in rows
        ), ""],
    ),
    Analysis(
        "significance", "significance-skipped", _significance,
        lambda r: {"significance": _matrix_to_dict(r[0]), "winners": list(r[1])},
        _significance_files, _significance_text,
    ),
    Analysis("bins", "bins-skipped", _bins, _bins_json, _bins_files, _bins_text),
    Analysis(
        "groups", "groups-skipped", _groups,
        lambda groups: {"groups": {
            m: {g: _records(groups_rows(rows)) for g, rows in sorted(by_field.items())}
            for m, by_field in sorted(groups.items())
        }},
        lambda groups: ((f"groups_{_slug(m)}_{g}.csv", groups_rows(rows))
                        for m, by_field in sorted(groups.items())
                        for g, rows in sorted(by_field.items())),
        per_metric=True,
    ),
    Analysis(
        "agreements", "agreement-skipped", _agreement,
        lambda reports: {"agreements": {
            m: _fields(a, "metric_id") for m, a in sorted(reports.items())
        }},
        lambda reports: [("agreement.csv", agreement_rows(
            a for _, a in sorted(reports.items())))] if reports else [],
        lambda reports: [*(f"agreement [{m}]: tau={a.tau:.4f}; {a.interpretation}"
                           for m, a in sorted(reports.items())), ""] if reports else [],
        per_metric=True,
    ),
    Analysis(
        "assessor_curve", "simulation-skipped", _simulation,
        lambda curve: {"assessor_curve": _fields(curve) if curve else {}},
        lambda curve: [("assessor_curve.tsv", assessor_curve_rows(curve))] if curve else [],
        lambda curve: [
            "assessor simulation: "
            + ", ".join(f"r({i})={r:.4f}" for i, r in curve.points)
            + f"; recommended i = {'none' if curve.recommended is None else curve.recommended}",
            "",
        ] if curve else [],
        before_scoring=True,
    ),
)


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
    depend on where it is being written.  Each level's scores, segment_da
    and bins.points are iterators of row slices, and each bin summary's
    values a float64 array, which _json_chunks writes out one slice at a
    time.
    """
    doc = {
        "provenance": _provenance(bundle),
        "corpus": bundle.corpus_summary,
        "worker_count": bundle.worker_count,
        "findings": _records(findings_rows(bundle.findings)),
        "segment_da": _da_table(bundle.segment_da)[1],
        "system_da": _da_table(bundle.system_da)[1],
        "scores": {level: bundle.table._row_chunks(level) for level in ("segment", "system")},
    }
    for a in ANALYSES:
        doc.update(a.json(bundle.results[a.name]))
    return doc

def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


_JSON_LEAVES = {str, int, float, bool, type(None)}


def _json_doc(data: Any) -> str:
    """json.dumps(data, indent=2, sort_keys=True, ensure_ascii=False) + "\\n",
    byte for byte; see _json_chunks."""
    return "".join(_json_chunks(data))


def _json_chunks(data: Any) -> Iterator[str]:
    """_json_doc's text in chunks: each dict key, each leaf or nested value
    json.dumps hands back whole, and each flat list, 1-D float64 array (as
    the list of its values) or list of flat rows in slices of CHUNK_ROWS
    items, each slice one C-encoder call (json.dumps has none with indent).
    The item separator carries the newline and indent; exact, as every
    newline in JSON output is structural.
    """
    yield from _json_value(data, "\n")
    yield "\n"


def _json_value(v: Any, nl: str) -> Iterator[str]:
    """v's text at the indent in nl; an iterator stands for a list of flat
    rows, given as non-empty slices (a score table's _row_chunks), and a
    1-D float64 array for the flat list of its values, written in slices."""
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
    if type(v) is np.ndarray:
        yield from _json_items((part.tolist() for part in _slices(v)), nl)
        return
    if type(v) in (list, tuple) and v:
        kinds = set(map(type, v))
        if kinds <= _JSON_LEAVES:
            yield from _json_items(_slices(v), nl)
            return
        rows = kinds <= {list, tuple} and all(v)
        if rows and set(map(type, chain.from_iterable(v))) <= _JSON_LEAVES:
            yield from _json_rows(_slices(v), nl)
            return
    yield json.dumps(v, indent=2, sort_keys=True, ensure_ascii=False).replace("\n", nl)


def _json_items(slices: Iterable[Sequence], nl: str) -> Iterator[str]:
    """A flat list of JSON leaves, one C-encoder call per non-empty slice."""
    inner = nl + "  "
    head = "[" + inner
    for items in slices:
        yield head + _json_flat(items, inner)[1:-1]
        head = "," + inner
    yield nl + "]" if head == "," + inner else "[]"


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
    for a in ANALYSES:
        lines.extend(a.text(bundle.results[a.name]))
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
    _write_table("segment_da.tsv", _da_table(bundle.segment_da))
    _write_table("system_da.tsv", _da_table(bundle.system_da))
    _write("scores.tsv", mt._score_chunks(bundle.table))
    for a in ANALYSES:
        for name, data in a.files(bundle.results[a.name]):
            _write_table(name, data) if type(data) is tuple else _write(name, [data])
            del data  # let it go before the next one is built
    manifest = sorted(p.name for p in written)
    _write("manifest.json", [json.dumps(manifest, indent=2) + "\n"])
    return written
