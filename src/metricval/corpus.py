"""Loading, alignment, and validation of test sets and system outputs.

File layout is line-aligned plain text: one segment per line, UTF-8, with a
source file, one or more parallel reference files, and one output file per
system.  Segments are identified by 0-based line index.  System metadata
(type and track labels) comes from a small CSV.  Loading applies no text
normalization whatsoever, so a loaded corpus can be re-serialized
byte-for-byte (modulo a trailing newline).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .correlation import DEFAULT_MIN_SYSTEMS
from .errors import AlignmentError, DataError, utf8_input
from .findings import Finding, warning
from .significance import _significance_bar


METADATA_FIELDS = ("system_id", "system_type", "track")


@dataclass(frozen=True)
class Segment:
    """One test-set item: a source sentence and its reference translations."""

    source: str
    references: tuple[str, ...]

    def __post_init__(self):
        if not self.references:
            raise DataError("segment has no references")


@dataclass(frozen=True)
class TestSet:
    """An ordered collection of segments for one language pair.

    Attributes:
        segments: the items, indexed by 0-based segment id.
        language_pair: tag such as "zh-en"; purely descriptive.
    """

    segments: tuple[Segment, ...]
    language_pair: str = ""

    def __post_init__(self):
        if not self.segments:
            raise DataError("test set has no segments")

    def __len__(self) -> int:
        return len(self.segments)


@dataclass(frozen=True)
class SystemOutput:
    """One system's hypotheses, line-aligned with a test set."""

    system_id: str
    hypotheses: tuple[str, ...]


@dataclass(frozen=True)
class SystemMeta:
    """Descriptive labels for one system.

    Attributes:
        system_id: must match a loaded output.
        system_type: free label, e.g. "neural" or "statistical".
        track: free label, e.g. "translation-task" or "tuning-task".
    """

    system_id: str
    system_type: str
    track: str


@dataclass(frozen=True)
class EvaluationCorpus:
    """A test set with aligned system outputs and optional metadata.

    Treated as immutable after construction; attach_system_metadata returns
    a new corpus rather than mutating.
    """

    test_set: TestSet
    outputs: dict[str, SystemOutput]
    meta: dict[str, SystemMeta] = field(default_factory=dict)

    def __post_init__(self):
        if not self.outputs:
            raise DataError("corpus has no system outputs")
        for system_id, out in self.outputs.items():
            if system_id != out.system_id:
                raise DataError(
                    f"output keyed {system_id!r} carries system_id {out.system_id!r}"
                )
            if len(out.hypotheses) != len(self.test_set):
                raise AlignmentError(
                    f"system {system_id!r}: {len(out.hypotheses)} hypotheses "
                    f"for {len(self.test_set)} segments"
                )

    def system_ids(self) -> list[str]:
        return sorted(self.outputs)

    def hypothesis(self, system_id: str, segment_id: int) -> str:
        return self.outputs[system_id].hypotheses[segment_id]


def read_lines(path: str | Path) -> list[str]:
    """Read a UTF-8 text file as one string per line.

    Only "\\n" (optionally preceded by "\\r") terminates a line, so unusual
    in-text characters like U+2028 survive loading untouched.
    """
    with utf8_input(path):
        text = Path(path).read_text(encoding="utf-8")
    if text == "":
        return []
    if text.endswith("\n"):
        text = text[:-1]
    return [line[:-1] if line.endswith("\r") else line for line in text.split("\n")]


def serialize_lines(lines: Iterable[str]) -> str:
    """Inverse of read_lines for "\\n"-terminated files."""
    return "".join(line + "\n" for line in lines)


def load_testset(
    source_path: str | Path,
    reference_paths: Sequence[str | Path],
    language_pair: str = "",
) -> TestSet:
    """Load a test set from a source file and parallel reference files.

    Args:
        source_path: one source segment per line.
        reference_paths: at least one file, each line-aligned with the source.
        language_pair: recorded on the test set.

    Raises:
        DataError: no reference files, or an empty file.
        AlignmentError: a reference file's line count differs from the source.
    """
    if not reference_paths:
        raise DataError("at least one reference file is required")
    sources = read_lines(source_path)
    if not sources:
        raise DataError(f"empty source file: {source_path}")
    all_refs = []
    for ref_path in reference_paths:
        refs = read_lines(ref_path)
        if not refs:
            raise DataError(f"empty reference file: {ref_path}")
        if len(refs) != len(sources):
            raise AlignmentError(
                f"reference {ref_path}: expected {len(sources)}, got {len(refs)}"
            )
        all_refs.append(refs)
    segments = tuple(
        Segment(src, tuple(refs[i] for refs in all_refs))
        for i, src in enumerate(sources)
    )
    return TestSet(segments, language_pair)


def load_system_outputs(
    path: str | Path, system_id: str, test_set: TestSet
) -> SystemOutput:
    """Load one system's output file, enforcing alignment with the test set.

    Raises:
        AlignmentError: line count differs from the test set's segment count.
    """
    lines = read_lines(path)
    if len(lines) != len(test_set):
        raise AlignmentError(
            f"system {system_id!r} ({path}): expected {len(test_set)}, got {len(lines)}"
        )
    return SystemOutput(system_id, tuple(lines))


def load_output_dir(
    directory: str | Path, test_set: TestSet
) -> dict[str, SystemOutput]:
    """Load every file in a directory as one system each.

    The system_id is the filename stem.  Files are taken in sorted order.

    Raises:
        DataError: the directory holds no files, two files share a stem, or
            a stem holds a tab or line break, which no score dump can carry.
    """
    paths = sorted(p for p in Path(directory).glob("*") if p.is_file())
    if not paths:
        raise DataError(f"no output files in {directory}")
    outputs: dict[str, SystemOutput] = {}
    for p in paths:
        if any(c in p.stem for c in "\t\r\n"):
            raise DataError(f"output file {str(p)!r}: tab or line break in system id")
        if p.stem in outputs:
            raise DataError(f"duplicate system_id {p.stem!r} in {directory}")
        outputs[p.stem] = load_system_outputs(p, p.stem, test_set)
    return outputs


def build_corpus(
    test_set: TestSet, outputs: Iterable[SystemOutput]
) -> EvaluationCorpus:
    """Assemble a corpus from loaded pieces, rejecting duplicate system ids."""
    table: dict[str, SystemOutput] = {}
    for out in outputs:
        if out.system_id in table:
            raise DataError(f"duplicate system_id {out.system_id!r}")
        table[out.system_id] = out
    return EvaluationCorpus(test_set, table)


def load_system_metadata(path: str | Path) -> list[SystemMeta]:
    """Read a metadata CSV with header system_id,system_type,track.

    Extra columns are ignored; missing ones are an error.

    Raises:
        DataError: missing required columns, a row without a value for
            each of them or a system_id holding a line break (naming its
            line), or duplicate system rows.
    """
    rows: list[SystemMeta] = []
    seen: set[str] = set()
    with utf8_input(path), open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        # Like csv.DictReader, a repeated column name means its last column.
        column = {name: i for i, name in enumerate(next(reader, []))}
        missing = [c for c in METADATA_FIELDS if c not in column]
        if missing:
            raise DataError(
                f"metadata {path}: missing column(s) {', '.join(missing)}; "
                f"expected header {','.join(METADATA_FIELDS)}"
            )
        line = reader.line_num + 1
        for row in reader:
            if row:
                short = [c for c in METADATA_FIELDS if column[c] >= len(row)]
                if short:
                    raise DataError(
                        f"metadata {path} line {line}: short row, no {', '.join(short)}"
                    )
                system_id, system_type, track = (row[column[c]] for c in METADATA_FIELDS)
                if "\r" in system_id or "\n" in system_id:
                    raise DataError(
                        f"metadata {path} line {line}: line break in "
                        f"system_id {system_id!r}"
                    )
                if system_id in seen:
                    raise DataError(f"metadata {path}: duplicate system_id {system_id!r}")
                seen.add(system_id)
                rows.append(SystemMeta(system_id, system_type, track))
            line = reader.line_num + 1
    return rows


def attach_system_metadata(
    corpus: EvaluationCorpus, meta_rows: Iterable[SystemMeta]
) -> EvaluationCorpus:
    """Return a corpus with the given metadata recorded.

    Systems without a row simply have no metadata; a row naming a system the
    corpus does not contain is an error.

    Raises:
        DataError: unknown system_id in a row.
    """
    meta = dict(corpus.meta)
    for row in meta_rows:
        if row.system_id not in corpus.outputs:
            raise DataError(
                f"metadata names unknown system {row.system_id!r}; "
                f"loaded systems: {', '.join(corpus.system_ids())}"
            )
        meta[row.system_id] = row
    return replace(corpus, meta=meta)


def validate_corpus(
    corpus: EvaluationCorpus, min_systems: int = DEFAULT_MIN_SYSTEMS
) -> list[Finding]:
    """Check a corpus against study-design guidance; never raises.

    Emits warnings for fewer than min_systems systems, with what the r = 0
    test needs at that size, for metadata showing a single system type
    (correlations measured on homogeneous systems do not transfer), and for
    empty lines that will score 0 regardless of quality.
    """
    findings: list[Finding] = []
    n_systems = len(corpus.outputs)
    if n_systems < min_systems:
        findings.append(
            warning(
                f"{n_systems} systems < {min_systems}; for system-level "
                f"Pearson, {_significance_bar(n_systems)}",
                code="few-systems",
            )
        )
    types = {m.system_type for m in corpus.meta.values()}
    if len(corpus.meta) > 1 and len(types) == 1:
        findings.append(
            warning(
                f"all systems share system_type {next(iter(types))!r}; "
                "correlation on homogeneous systems may not generalize",
                code="single-type",
            )
        )
    for system_id in corpus.system_ids():
        empties = sum(
            1 for h in corpus.outputs[system_id].hypotheses if h.strip() == ""
        )
        if empties:
            findings.append(
                warning(
                    f"system {system_id!r} has {empties} empty output line(s)",
                    code="empty-output",
                )
            )
    empty_refs = sum(
        1
        for seg in corpus.test_set.segments
        if any(r.strip() == "" for r in seg.references)
    )
    if empty_refs:
        findings.append(
            warning(
                f"{empty_refs} segment(s) have an empty reference", code="empty-reference"
            )
        )
    return findings
