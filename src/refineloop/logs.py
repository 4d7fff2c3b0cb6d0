"""Correctness logs and their on-disk format.

A :class:`CorrectnessLog` is the ground-truth record of one refinement
run: an N x (K+1) boolean matrix, row per problem, column per iteration
(column 0 is the initial attempt). Files are line-delimited CSV behind an
explicit version header, in one of two layouts:

record form (one row per problem/iteration cell)::

    #correctness-log/v1
    #meta:seed=7
    problem_id,iteration,correct,confidence,run_label
    p000,0,1,,standard

compact form (one row per problem)::

    #correctness-log/v1
    problem_id,it0,it1,it2
    p000,1,1,0

``#meta:key=value`` lines carry free-form metadata. The record form may
hold several runs distinguished by ``run_label``; the compact form always
holds one. Confidence values are optional per record. Parsers fail with
the offending line number rather than guessing.
"""

import csv
import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

__all__ = ["FORMAT_VERSION", "LogFormatError", "CorrectnessLog", "align_rows", "read_log", "read_runs", "write_log"]

FORMAT_VERSION = "correctness-log/v1"
_RECORD_HEADER = ("problem_id", "iteration", "correct", "confidence", "run_label")
_DEFAULT_RUN = "run"


class LogFormatError(ValueError):
    """A log file violated the format; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass(eq=False)
class CorrectnessLog:
    """Per-problem, per-iteration correctness for one run."""

    problem_ids: list[str]
    correctness: np.ndarray  # bool, shape (n_problems, n_iterations + 1)
    metadata: dict[str, str] = field(default_factory=dict)
    confidence: np.ndarray | None = None  # float, same shape, nan = absent

    def __post_init__(self):
        matrix = np.asarray(self.correctness)
        if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
            raise ValueError(f"correctness must be a non-empty 2-d matrix, got shape {matrix.shape}")
        if matrix.dtype != np.bool_:
            if not np.isin(matrix, (0, 1)).all():
                raise ValueError("correctness entries must be 0/1")
            matrix = matrix.astype(bool)
        self.correctness = matrix
        self.problem_ids = [str(p) for p in self.problem_ids]
        if len(self.problem_ids) != matrix.shape[0]:
            raise ValueError(
                f"{len(self.problem_ids)} problem ids for {matrix.shape[0]} matrix rows"
            )
        if len(set(self.problem_ids)) != len(self.problem_ids):
            raise ValueError("problem ids must be unique")
        if self.confidence is not None:
            conf = np.asarray(self.confidence, dtype=float)
            if conf.shape != matrix.shape:
                raise ValueError("confidence matrix shape must match correctness")
            self.confidence = conf

    @property
    def n_problems(self) -> int:
        return self.correctness.shape[0]

    @property
    def n_iterations(self) -> int:
        """Number of transitions K; columns run 0..K."""
        return self.correctness.shape[1] - 1

    def accuracy(self, k: int) -> float:
        return float(np.count_nonzero(self.correctness[:, k])) / self.n_problems


def align_rows(log_a: CorrectnessLog, log_b: CorrectnessLog) -> np.ndarray:
    """``log_b``'s correctness rows in ``log_a``'s problem-id order; ValueError unless the ids match."""
    if log_a.problem_ids == log_b.problem_ids:
        return log_b.correctness
    pos = {pid: i for i, pid in enumerate(log_b.problem_ids)}
    order = [pos.get(pid) for pid in log_a.problem_ids]
    # ids are unique within a log: equal counts and no missing id mean equal sets
    if log_a.n_problems != log_b.n_problems or None in order:
        raise ValueError("paired runs cover different problem sets")
    return log_b.correctness[order]


def _parse_directives(lines) -> tuple[dict[str, str], int]:
    """Consume the version header and #meta lines; return (metadata, next_index)."""
    if not lines:
        raise LogFormatError(f"empty file, expected '#{FORMAT_VERSION}' header", line=1)
    first = lines[0].strip()
    if first != f"#{FORMAT_VERSION}":
        raise LogFormatError(
            f"expected version header '#{FORMAT_VERSION}', found {first!r}", line=1
        )
    metadata: dict[str, str] = {}
    i = 1
    while i < len(lines) and (lines[i].startswith("#") or not lines[i].strip()):
        if not lines[i].strip():  # a blank line, skipped here as in the body
            i += 1
            continue
        body = lines[i][1:].strip()
        if not body.startswith("meta:"):
            raise LogFormatError(f"unknown directive {lines[i].strip()!r}", line=i + 1)
        payload = body[len("meta:"):]
        if "=" not in payload:
            raise LogFormatError(f"metadata directive needs key=value, got {payload!r}", line=i + 1)
        key, value = (text.strip() for text in payload.split("=", 1))
        if key in metadata:
            raise LogFormatError(f"repeated metadata key {key!r}", line=i + 1)
        metadata[key] = value
        i += 1
    return metadata, i


def _parse_correct(text: str, line: int) -> bool:
    if text == "0":
        return False
    if text == "1":
        return True
    raise LogFormatError(f"correct must be 0 or 1, got {text!r}", line=line)


def _read_record_rows(rows, metadata, default_label) -> dict[str, CorrectnessLog]:
    # runs[label][pid][iteration] = (correct, confidence), in first-seen order
    runs: dict[str, dict[str, dict[int, tuple[bool, float]]]] = {}
    for row, line in rows:
        if len(row) < 3 or len(row) > 5:
            raise LogFormatError(f"expected 3-5 fields, got {len(row)}", line=line)
        pid = row[0]
        try:
            iteration = int(row[1])
        except ValueError:
            raise LogFormatError(f"iteration must be an integer, got {row[1]!r}", line=line) from None
        if iteration < 0:
            raise LogFormatError(f"iteration must be >= 0, got {iteration}", line=line)
        correct = _parse_correct(row[2], line)
        conf = math.nan
        if len(row) >= 4 and row[3] != "":
            try:
                conf = float(row[3])
            except ValueError:
                raise LogFormatError(f"confidence must be a number, got {row[3]!r}", line=line) from None
        label = row[4] if len(row) == 5 and row[4] != "" else default_label
        per = runs.setdefault(label, {}).setdefault(pid, {})
        if iteration in per:
            raise LogFormatError(
                f"duplicate record for problem {pid!r}, run {label!r}, iteration {iteration}",
                line=line,
            )
        per[iteration] = (correct, conf)
    if not runs:
        raise LogFormatError("log contains a header but no records")

    logs: dict[str, CorrectnessLog] = {}
    for label, problems in runs.items():
        widths = {len(per) for per in problems.values()}
        if len(widths) != 1:
            raise LogFormatError(
                f"run {label!r}: problems disagree on iteration count ({sorted(widths)})"
            )
        width = widths.pop()
        for pid, per in problems.items():
            if sorted(per) != list(range(width)):
                raise LogFormatError(
                    f"run {label!r}, problem {pid!r}: iterations must be contiguous from 0, "
                    f"got {sorted(per)}"
                )
        flat = (v for per in problems.values() for k in range(width) for v in per[k])
        cells = np.fromiter(flat, dtype=float, count=2 * len(problems) * width).reshape(len(problems), width, 2)
        conf = cells[:, :, 1]
        logs[label] = CorrectnessLog(
            problem_ids=list(problems),
            correctness=cells[:, :, 0].astype(bool),
            metadata=dict(metadata),
            confidence=None if np.isnan(conf).all() else conf,
        )
    return logs


def _read_compact_rows(rows, header, header_line, metadata, label) -> dict[str, CorrectnessLog]:
    expected = [f"it{k}" for k in range(len(header) - 1)]
    if header[1:] != expected:
        raise LogFormatError(
            f"compact header columns must be it0..it{len(header) - 2}, got {header[1:]}",
            line=header_line,
        )
    bits: dict[str, list[bool]] = {}  # problem id -> its row, in file order
    for row, line in rows:
        if len(row) != len(header):
            raise LogFormatError(f"expected {len(header)} fields, got {len(row)}", line=line)
        cells = [_parse_correct(cell, line) for cell in row[1:]]
        if row[0] in bits:
            raise LogFormatError(f"duplicate row for problem {row[0]!r}", line=line)
        bits[row[0]] = cells
    if not bits:
        raise LogFormatError("log contains a header but no records")
    matrix = np.array(list(bits.values()), dtype=bool)
    return {label: CorrectnessLog(problem_ids=list(bits), correctness=matrix, metadata=metadata)}


def _fields(lines, start):
    """Yield (csv fields, 1-based line number) for each non-blank line from ``lines[start]`` on."""
    for line in range(start + 1, len(lines) + 1):
        text = lines[line - 1]
        if text.strip():
            try:
                yield next(csv.reader([text])), line
            except csv.Error as exc:  # a field longer than csv.field_size_limit()
                raise LogFormatError(str(exc), line=line) from None


def read_runs(path) -> dict[str, CorrectnessLog]:
    """Read every run in a log file, keyed by run label."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().splitlines()
    metadata, start = _parse_directives(lines)
    label = metadata.pop("run_label", _DEFAULT_RUN)
    rows = _fields(lines, start)
    header, header_line = next(rows, (None, None))
    if header is None:
        raise LogFormatError("log has no column header after the directives")
    if len(header) >= 2 and header[1] == "iteration":
        if tuple(header) != _RECORD_HEADER[: len(header)] or len(header) < 3:
            raise LogFormatError(
                f"record header must be a prefix of {','.join(_RECORD_HEADER)}", line=header_line
            )
        return _read_record_rows(rows, metadata, label)
    if len(header) >= 2 and header[0] == "problem_id" and re.fullmatch(r"it\d+", header[1]):
        return _read_compact_rows(rows, header, header_line, metadata, label)
    raise LogFormatError(
        "unrecognized column header; expected record form "
        f"({','.join(_RECORD_HEADER[:3])},...) or compact form (problem_id,it0,...)",
        line=header_line,
    )


def read_log(path) -> CorrectnessLog:
    """Read a single-run log file; refuses multi-run files."""
    runs = read_runs(path)
    if len(runs) != 1:
        raise LogFormatError(
            f"file holds {len(runs)} runs ({', '.join(sorted(runs))}); use read_runs()"
        )
    return next(iter(runs.values()))


def _one_line(text: str) -> bool:
    # read_runs splits a file with str.splitlines, which breaks on more than "\n"
    return "".join(text.splitlines()) == text


def _write_directives(out, metadata):
    out.write(f"#{FORMAT_VERSION}\n")
    for key in sorted(metadata):
        value = str(metadata[key])
        # read back one line at a time, split at the first "=", key and value stripped
        if not key or "=" in key or not all(_one_line(t) and t == t.strip() for t in (key, value)):
            raise ValueError(f"metadata {key!r}={value!r}: need a non-empty key without '=' and "
                             "one-line key and value without surrounding whitespace")
        out.write(f"#meta:{key}={value}\n")


def write_log(log: CorrectnessLog, path, form: str = "records", run_label: str | None = None) -> None:
    """Write one run to ``path`` in record or compact form.

    Raises ValueError, before the file is created, for input that
    ``read_runs`` would not give back unchanged.
    """
    if form not in ("records", "compact"):
        raise ValueError(f"form must be 'records' or 'compact', got {form!r}")
    label = run_label if run_label is not None else log.metadata.get("run_label", _DEFAULT_RUN)
    if not _one_line("".join(log.problem_ids)):
        bad = next(pid for pid in log.problem_ids if not _one_line(pid))
        raise ValueError(f"problem id {bad!r} contains a line break")
    if form == "records" and not (label and _one_line(label)):
        raise ValueError(f"record-form run label must be one non-empty line, got {label!r}")
    limit = csv.field_size_limit()
    if max(map(len, log.problem_ids)) > limit or (form == "records" and len(label) > limit):
        raise ValueError(f"problem ids and record-form run labels may not exceed {limit} characters")
    out = io.StringIO()
    meta = {k: v for k, v in log.metadata.items() if k != "run_label"}
    writer = csv.writer(out, lineterminator="\n")
    if form == "compact":
        meta["run_label"] = label
        _write_directives(out, meta)
        writer.writerow(["problem_id"] + [f"it{k}" for k in range(log.correctness.shape[1])])
        for pid, row in zip(log.problem_ids, log.correctness):
            writer.writerow([pid] + ["1" if c else "0" for c in row])
    else:
        _write_directives(out, meta)
        writer.writerow(_RECORD_HEADER)
        conf = log.confidence
        for i, pid in enumerate(log.problem_ids):
            for k in range(log.correctness.shape[1]):
                cell = ""
                if conf is not None and not math.isnan(conf[i, k]):
                    cell = repr(float(conf[i, k]))
                writer.writerow([pid, k, "1" if log.correctness[i, k] else "0", cell, label])
    data = out.getvalue().encode("utf-8")  # an unencodable id fails before the file exists
    with open(path, "wb") as fh:
        fh.write(data)
