"""Tools for validating automatic MT metrics against human judgments.

The package covers the full study pipeline: ingesting test sets and system
outputs, standardizing crowd-sourced adequacy judgments into DA scores,
scoring systems with BLEU and chrF, correlating metric and human scores,
testing correlation differences for significance, and mining diagnostics
such as score distributions by translation quality band and the largest
metric-human disagreements.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    AgreementReport,
    BinAssignment,
    BinSummary,
    FailureCase,
    GroupCorrelation,
    conditional_distribution,
    failure_cases,
    grouped_correlation,
    kendall_agreement_report,
    tertile_bins,
)
from .corpus import (
    EvaluationCorpus,
    Segment,
    SystemMeta,
    SystemOutput,
    TestSet,
    attach_system_metadata,
    build_corpus,
    load_output_dir,
    load_system_metadata,
    load_system_outputs,
    load_testset,
    validate_corpus,
)
from .correlation import (
    CorrelationResult,
    aligned,
    average_ranks,
    correlate,
    kendall_pair_counts,
    kendall_tau,
    pearson,
    segment_correlation,
    spearman,
    system_correlation,
)
from .errors import (
    AlignmentError,
    ConfigError,
    DataError,
    DegeneracyError,
    InsufficientDataError,
    NonFiniteError,
    StatsError,
    StudyError,
    UndefinedCorrelationError,
)
from .findings import Finding
from .judgments import (
    CENTER,
    ZSCORE,
    AssessorCurve,
    AssessorSimConfig,
    Judgments,
    WorkerStats,
    load_judgments,
    segment_da,
    simulate_assessor_count,
    standardize_judgments,
    system_da,
)
from .metrics import (
    BleuConfig,
    ChrfConfig,
    MetricScoreTable,
    MetricScores,
    SparseScores,
    TokenizationScheme,
    chrf,
    config_signature,
    corpus_bleu,
    corpus_chrf,
    load_external_metric_scores,
    merge_tables,
    parse_signature,
    score_systems,
    sentence_bleu,
    tokenize,
)
from .report import ReportBundle, StudyConfig, emit_report, load_config, run_study
from .significance import (
    SignificanceMatrix,
    TestOutcome,
    min_significant_r,
    pearson_zero_test,
    significance_matrix,
    student_t_sf,
    williams_test,
    winner_set,
)

__version__ = "0.1.0"

# Every public name imported above, so a re-export is one edit.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
