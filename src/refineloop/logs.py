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
the offending line number rather than guessing. A file byte for byte as
``write_log`` writes it, quoted ids and labels and filled confidences
included, is read through numpy and checked by encoding the result
again; any other file (a ``\r``, a blank line, rows out of order, a hand
edit) is read with ``csv``, with the same result. Each of ``write_log``'s
two writers has its own reader: a file ``_matrix_file`` writes is read as
rows of one template (``_matrix_candidate``), with no array per line; any
other, from one scan for its line ends (``_canonical_candidate``). Ids
are read in one numpy pass: when none was quoted and all have one width,
as one byte grid, which the log keeps (``_IdGrid``) if its ids are
distinct ASCII (every log ``simulate`` writes), with no str per id: its
``tuple`` of ids is built on first read, two such logs in one order are
paired by their grids, and it is written again from the grid. Any other
ids are read as strs through one keep-mask over the body. A log is
written without a string per row: when it keeps its id grid, with no
confidence filled and no grid byte that ends a line or needs quoting,
as one byte matrix filled by runs of equal-length lines, else as one
byte array with its ids (every '"' doubled in one pass, quoted where
they hold "," or '"'), and its filled confidences' text (one ``repr``
per distinct float bit pattern), grouped by width.
"""

import csv
import math
import re
from collections.abc import Mapping, Sequence
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .dynamics import _check_int

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


def _check_correctness(values) -> np.ndarray:
    """``values`` as a bool array; ValueError unless every entry is 0 or 1.

    The one rule for correctness entries, so that 2, 0.5, -1 or NaN is
    never read as "correct". A bool array takes no pass over its elements.
    """
    array = np.asarray(values)
    if array.dtype != np.bool_:
        if not np.isin(array, (0, 1)).all():
            raise ValueError("correctness entries must be 0/1")
        array = array.astype(bool)
    return array


class _IdGrid:
    """Distinct ASCII ids of one width, no "\\n" among them, as the rows of an ``(n, w)`` uint8 grid.

    Given as a log's ``problem_ids``, it skips the type and uniqueness
    passes, and the log keeps the grid: its ``tuple`` of ids is built on
    first read. Only ``simulate._problem_ids``, whose ids are distinct by
    construction, and the reader, after ``_distinct_rows``, build one.
    """

    __slots__ = ("grid",)

    def __init__(self, grid: np.ndarray):
        self.grid = grid

    def __iter__(self):
        n, width = self.grid.shape
        lines = np.empty((n, width + 1), dtype=np.uint8)  # each row and a "\n"
        lines[:, :width] = self.grid
        lines[:, width] = ord("\n")
        return iter(lines.tobytes()[:-1].decode("ascii").split("\n"))


def _distinct_rows(grid: np.ndarray) -> bool:
    """True if the rows of a uint8 grid are known to differ: one uint64 key per row, sorted, neighbours compared.

    A row of up to 8 bytes is its own key; a wider row's 8-byte words are
    folded into one, so a repeated key may be a collision, not a repeat,
    and False then means "not known".
    """
    n, width = grid.shape
    words = np.zeros((n, max(1, -(-width // 8)) * 8), dtype=np.uint8)
    words[:, :width] = grid
    words = words.view(np.uint64)
    keys = words[:, 0].copy()
    for col in range(1, words.shape[1]):
        keys *= np.uint64(0x9E3779B97F4A7C15)  # wraps: a hash, not a sum
        keys ^= words[:, col]
    keys.sort()
    return not (keys[1:] == keys[:-1]).any()


def _read_only(array: np.ndarray) -> np.ndarray:
    """A view of ``array`` whose cells cannot be written; nothing is copied, and ``array`` stays writable."""
    view = array.view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)  # arrays have no single truth value to compare by
class CorrectnessLog:
    """Per-problem, per-iteration correctness for one run.

    Every field is checked and set once, here, and nothing written through
    the log changes it: ``problem_ids`` is held as a ``tuple`` (any
    sequence of strs is taken, a ``str`` is refused), and ``correctness``
    and ``confidence`` as read-only views, not copies, so an array the
    caller kept can still be written, and the log shows what is written
    there. ``metadata`` must be a mapping. Ids given as an ``_IdGrid``, the
    byte grid of distinct one-width ASCII ids that ``simulate`` and the
    reader build, skip the type and uniqueness passes (they still meet the
    row-count check). The log keeps a read-only view of the grid as
    ``_id_grid`` (else None), from which ``write_log`` takes the ids'
    bytes and ``align_rows`` pairs two logs; their ``tuple`` is built on
    first read of ``problem_ids``, once. ``repr`` reads it, so it builds
    the tuple (about 100 ms and 61 MiB at 1M ids), and so does
    ``dataclasses.replace``, which returns a log of str ids with no grid:
    the same values, written with the same bytes.
    """

    problem_ids: tuple[str, ...]
    correctness: np.ndarray  # bool, shape (n_problems, n_iterations + 1), read-only
    metadata: dict[str, str] = field(default_factory=dict)
    confidence: np.ndarray | None = None  # float, same shape, nan = absent, read-only; None when none is filled
    _id_grid: np.ndarray | None = field(default=None, init=False, repr=False)  # uint8, (n_problems, id width)

    def __post_init__(self):
        matrix = np.asarray(self.correctness)
        if matrix.ndim != 2 or matrix.shape[0] < 1 or matrix.shape[1] < 1:
            raise ValueError(f"correctness must be a non-empty 2-d matrix, got shape {matrix.shape}")
        matrix = _check_correctness(matrix)
        if isinstance(self.problem_ids, str):  # else taken as one id per character
            raise ValueError("problem ids must be a sequence of strings, not one str")
        if not isinstance(self.metadata, Mapping):
            raise ValueError(f"metadata must be a mapping, got {type(self.metadata).__name__}")
        grid = self.problem_ids.grid if type(self.problem_ids) is _IdGrid else None
        if grid is None:
            ids = tuple(self.problem_ids)
            # one test per type, not per id
            if not all(issubclass(t, str) for t in set(map(type, ids))):
                bad = next(p for p in ids if not isinstance(p, str))
                raise ValueError(f"problem ids must be strings, got {bad!r}")
        n_ids = len(ids) if grid is None else grid.shape[0]
        if n_ids != matrix.shape[0]:
            raise ValueError(f"{n_ids} problem ids for {matrix.shape[0]} matrix rows")
        if grid is None and len(set(ids)) != len(ids):
            raise ValueError("problem ids must be unique")
        conf = self.confidence
        if conf is not None:
            conf = np.asarray(conf, dtype=float)
            if conf.shape != matrix.shape:
                raise ValueError("confidence matrix shape must match correctness")
            conf = None if np.isnan(conf).all() else _read_only(conf)
        object.__setattr__(self, "correctness", _read_only(matrix))
        object.__setattr__(self, "confidence", conf)
        if grid is None:
            object.__setattr__(self, "problem_ids", ids)
        else:  # built from the grid by __getattr__, on first read
            object.__delattr__(self, "problem_ids")
            object.__setattr__(self, "_id_grid", _read_only(grid))

    def __getattr__(self, name):
        # reached only for a name the instance and its class lack: ``problem_ids``
        # of a log that keeps its grid, before its first read, is the one it builds
        grid = self.__dict__.get("_id_grid")
        if name != "problem_ids" or grid is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ids = self.__dict__["problem_ids"] = tuple(_IdGrid(grid))  # cached as functools.cached_property does
        return ids

    @property
    def n_problems(self) -> int:
        return self.correctness.shape[0]

    @property
    def n_iterations(self) -> int:
        """Number of transitions K; columns run 0..K."""
        return self.correctness.shape[1] - 1

    def accuracy(self, k: int) -> float:
        """The share of problems correct at iteration ``k``, for k in 0..K; ValueError for any other ``k``."""
        k = _check_int("k", k, 0, self.n_iterations + 1)
        return float(np.count_nonzero(self.correctness[:, k])) / self.n_problems


_DIFFERENT_SETS = "paired runs cover different problem sets"


def align_rows(log_a: CorrectnessLog, log_b: CorrectnessLog) -> np.ndarray:
    """``log_b``'s correctness rows in ``log_a``'s problem-id order; ValueError unless the ids match.

    Two logs that keep their id grids in one order are paired by one
    comparison of the grids, with no str per id; any other pair through a
    ``dict`` of ``log_b``'s ids.
    """
    grid_a, grid_b = log_a._id_grid, log_b._id_grid
    if grid_a is None or grid_b is None:
        if log_a.problem_ids == log_b.problem_ids:
            return log_b.correctness
    elif grid_a.shape != grid_b.shape:  # another count, or ids of another width: an id of one log is not in the other
        raise ValueError(_DIFFERENT_SETS)
    elif np.array_equal(grid_a, grid_b):
        return log_b.correctness
    pos = dict(zip(log_b.problem_ids, range(log_b.n_problems)))
    order = list(map(pos.get, log_a.problem_ids))
    # ids are unique within a log: equal counts and no missing id mean equal sets
    if log_a.n_problems != log_b.n_problems or None in order:
        raise ValueError(_DIFFERENT_SETS)
    return log_b.correctness[order]


def _parse_directives(lines) -> tuple[dict[str, str], str, int]:
    """Consume the version header and #meta lines; return (the other metadata, run label, next_index)."""
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
    return metadata, metadata.pop("run_label", _DEFAULT_RUN), i


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
        logs[label] = CorrectnessLog(
            problem_ids=list(problems),
            correctness=cells[:, :, 0].astype(bool),
            metadata=dict(metadata),
            confidence=cells[:, :, 1],
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


def _read_csv(data: bytes) -> dict[str, CorrectnessLog]:
    """Parse any log file with ``csv``, one line at a time; a fault names its line."""
    try:
        lines = data.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise LogFormatError(f"not UTF-8: {exc}", line=data.count(b"\n", 0, exc.start) + 1) from None
    metadata, label, start = _parse_directives(lines)
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


def _kept_ids(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> str:
    """The ids at ``buf[starts[i]:ends[i]]``, joined by "\\n", gathered through one keep-mask over the body."""
    first = starts[0]
    keep = np.zeros(ends[-1] + 1 - first, dtype=bool)
    keep[starts - first] = keep[ends[:-1] + 1 - first] = True  # toggles, never one byte: bits lie between
    np.logical_xor.accumulate(keep, out=keep)
    kept = buf[first : ends[-1] + 1][keep]  # each id and the byte after it, which becomes the "\n"
    kept[np.cumsum(ends - starts + 1) - 1] = ord("\n")
    return str(kept[:-1], "utf-8")


def _head(data: bytes) -> tuple[dict[str, str], str, str, int, int, int]:
    """(metadata, form, run label, body start, first line end, K + 1) of ``data``, read as ``write_log`` writes them.

    In record form the label is the first line's, read with ``csv``, and
    K + 1 the count of the lines that start with ``_quote(first id) + ","``.
    """
    end = 0
    while data.startswith(b"#", end):  # the directives
        end = data.index(b"\n", end) + 1
    body = data.index(b"\n", end) + 1  # past the column header
    lines = data[: body - 1].decode("utf-8").split("\n")
    metadata, label, _ = _parse_directives(lines)
    first = data.index(b"\n", body)
    if lines[-1] != ",".join(_RECORD_HEADER):
        return metadata, "compact", label, body, first, lines[-1].count(",")
    pid, _, _, _, label = next(csv.reader([data[body:first].decode("utf-8")]))  # pid,0,b,conf,label
    prefix, at, width = (_quote(pid) + ",").encode("utf-8"), first + 1, 1
    while data.startswith(prefix, at):  # one line per iteration
        at = data.index(b"\n", at) + 1
        width += 1
    return metadata, "records", label, body, first, width


def _matrix_candidate(data: bytes, head) -> CorrectnessLog:
    """The log read from ``data`` on the guess that ``_matrix_file`` wrote it; ``head`` is ``_head(data)``.

    The first problem's lines give the template row (``_matrix_layout``);
    the body is read as rows of it, with no array per line. ValueError
    before any encode unless the body is a whole number of rows with a
    "\\n" at every line end. Nothing else is checked here: ``_read_canonical``
    keeps the guess only if ``_encode`` turns it back into ``data``.
    """
    metadata, form, label, body, first, width = head
    tag = _quote(label)
    w = first + 1 - body - len(_line_suffixes(form, width, tag)[0][0])  # the id's width as written
    if w < 0:
        raise ValueError("the first line is too short for a template row")
    template, bit_cols, end_cols = _matrix_layout(form, width, tag, w)
    size = len(template)
    if (len(data) - body) % size:
        raise ValueError("the body is not a whole number of template rows")
    buf = np.frombuffer(data, dtype=np.uint8)
    rows = buf[body:].reshape(-1, size)
    if not (rows.take(end_cols, axis=1) == ord("\n")).all():  # take: a third of rows[:, cols]'s time
        raise ValueError("a line ends off the template row's line ends")
    starts = np.arange(body, len(data), size)  # each row's first id, at column 0
    ids = _read_ids(buf, starts, starts + w)
    # a copy, as the id grid is: no view keeps ``data`` alive. Made after the ids, it takes the space their
    # temporaries freed; made first, it sat above them and kept the heap from shrinking after the read
    matrix = rows.take(bit_cols, axis=1) == ord("1")
    return CorrectnessLog(problem_ids=ids, correctness=matrix, metadata=metadata)


def _canonical_candidate(data: bytes, head) -> CorrectnessLog:
    """The log read from ``data`` on the guess that ``_ragged_file`` wrote it; ``head`` is ``_head(data)``.

    Every line is found by one scan for its "\\n". Nothing is checked
    here: ``_read_canonical`` keeps the guess only if ``_encode`` turns it
    back into ``data``.
    """
    metadata, form, label, body, _, width = head
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf[body:] == ord("\n"))
    ends += body  # where each line's "\n" is
    starts = np.concatenate(([body], ends[:-1] + 1))
    confidence = None
    if form == "records":
        tag = _quote(label).encode("utf-8")
        if not data.endswith(tag, body, ends[0]):  # else a slice below could reach past its line
            raise ValueError("the first row does not end with its label as write_log quotes it")
        cells = ends - len(tag) - 1  # each line ends "b,conf,label": where conf starts if empty, the "," before label
        filled = np.flatnonzero(buf[cells - 1] != ord(","))  # not ",,"
        if len(filled):  # the one loop per line, over filled cells only
            stops = cells[filled].tolist()
            cells[filled] = found = [data.rindex(b",", s, e) + 1 for s, e in zip(starts[filled].tolist(), stops)]
            confidence = np.full(len(ends), np.nan)
            confidence[filled] = [float(data[s:e]) for s, e in zip(found, stops)]
            confidence = confidence.reshape(-1, width)
        matrix = (buf[cells - 2] == ord("1")).reshape(-1, width)
        starts, id_ends = starts[::width].copy(), cells[::width] - 5  # the k = 0 line: "pid,0,b,conf"
        del cells  # a per-line array, dropped like ends below
    else:  # compact: "pid,b0,...,bK"
        # rows too short for the header are not canonical, and their index matrix could dwarf the file
        if len(ends) * (2 * width + 1) > len(data) - body:
            raise ValueError("rows shorter than the header")
        matrix = buf[ends[:, None] + np.arange(1 - 2 * width, 0, 2)] == ord("1")
        id_ends = ends - 2 * width
    del ends  # no array per line outlives the parse: the ids are built next
    ids = _read_ids(buf, starts, id_ends)
    return CorrectnessLog(problem_ids=ids, correctness=matrix, metadata=metadata, confidence=confidence)


def _read_ids(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> _IdGrid | list[str]:
    """The ids written at ``buf[starts[i]:ends[i]]``, as ``_quote`` wrote them; ``starts`` and ``ends`` change in place.

    Ids of one width, none of them quoted, are gathered as one byte grid,
    kept as an ``_IdGrid`` when its rows are distinct ASCII. Any other ids
    are read as strs through one keep-mask over the body (``_kept_ids``);
    a repeat, if any, is then named by the log's constructor.
    """
    quoted = buf[starts] == ord('"')  # a quoted id: its enclosing quotes are dropped here
    starts += quoted
    ends -= quoted  # at the "," after each id, or at its closing quote
    spans = ends - starts
    if not spans.size or spans.min() < 0:
        raise ValueError("a row too short for its id")
    if not quoted.any() and spans.min() == spans.max():
        width = int(spans[0])
        grid = np.empty((len(starts), width), dtype=np.uint8)
        if width:  # one V{width} item per id, gathered as one unit
            grid.view(f"V{width}")[:, 0] = _items(buf, width)[starts]
        if (grid < 128).all() and _distinct_rows(grid):
            return _IdGrid(grid)
    return _kept_ids(buf, starts, ends).replace('""', '"').split("\n")  # undo _quote's doubling


def _read_canonical(data: bytes) -> dict[str, CorrectnessLog] | None:
    """The run in ``data`` if ``data`` is byte for byte what ``write_log`` writes for it, else None.

    With the head parsed once (``_head``), each writer's reader guesses in
    turn, ``_matrix_file``'s first: a file of one-width ASCII ids with no
    confidence filled is read as rows of one template, and any other from
    its line ends. A guess is kept only if ``_encode`` gives ``data`` back.
    """
    if b"\r" in data:  # write_log writes no "\r"; csv and str.splitlines read it as a line break
        return None
    with suppress(ValueError, IndexError, csv.Error):  # not write_log's; _read_csv names the fault, if any
        head = _head(data)
        _, form, label, *_ = head
        for candidate in (_matrix_candidate, _canonical_candidate):
            with suppress(ValueError, IndexError, csv.Error):  # not this writer's
                log = candidate(data, head)
                if _encode(log, form, label) == data:
                    return {label: log}
    return None


def read_runs(path) -> dict[str, CorrectnessLog]:
    """Read every run in a log file, keyed by run label.

    A file exactly as ``write_log`` writes it is parsed with numpy, by
    the reader of the writer that wrote it, and kept only when encoding
    the result gives the file's bytes back; every other file goes through
    ``csv`` line by line, with the same result.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    return _read_canonical(data) or _read_csv(data)


def read_log(path) -> CorrectnessLog:
    """Read a single-run log file; refuses multi-run files."""
    runs = read_runs(path)
    if len(runs) != 1:
        raise LogFormatError(
            f"file holds {len(runs)} runs ({', '.join(sorted(runs))}); use read_runs()"
        )
    return next(iter(runs.values()))


def _one_line(text) -> bool:
    # only a str reads back as itself; read_runs splits lines with str.splitlines, which breaks on more than "\n"
    return isinstance(text, str) and "".join(text.splitlines()) == text


def _check_label(label, form: str) -> None:
    """Refuse a run label that ``read_runs`` would not give back from a log in ``form``."""
    if not _one_line(label) or (form == "records" and not label):
        raise ValueError(f"run label must be a one-line string, non-empty in record form, got {label!r}")


def _quote(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field (QUOTE_MINIMAL; line breaks are refused earlier)."""
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


def _directives(metadata) -> str:
    lines = [f"#{FORMAT_VERSION}\n"]
    for key in sorted(metadata, key=str):  # a key that is not a str is refused below
        value = metadata[key]
        # read back one line at a time, split at the first "=", key and value stripped
        if not all(_one_line(t) and t == t.strip() for t in (key, value)) or not key or "=" in key:
            raise ValueError(f"metadata {key!r}={value!r}: key and value must be one-line strings without "
                             "surrounding whitespace, the key non-empty and without '='")
        lines.append(f"#meta:{key}={value}\n")
    return "".join(lines)


# the bytes that end a line for str.splitlines, and the two that csv quotes a field for
_LINE_BREAK_OR_QUOTE = np.frombuffer(b'\n\v\f\r\x1c\x1d\x1e,"', dtype=np.uint8)


def _encode(log: CorrectnessLog, form: str, label: str) -> bytes | bytearray:
    """The bytes of ``log`` in ``form``; ValueError for input ``read_runs`` would not give back unchanged.

    The writer follows the log's representation: a log that keeps its
    ids' grid is laid out as one byte matrix (``_matrix_file``), unless a
    confidence is filled or a byte of the grid ends a line or needs
    quoting; any other log, its ids read as strs, in one byte array
    (``_ragged_file``).
    """
    if form not in ("records", "compact"):
        raise ValueError(f"form must be 'records' or 'compact', got {form!r}")
    conf = log.confidence
    grid = log._id_grid
    if grid is not None and (conf is not None or np.isin(grid, _LINE_BREAK_OR_QUOTE).any()):
        grid = None
    if grid is None:
        ids = log.problem_ids
        if not _one_line("".join(ids)):
            bad = next(pid for pid in ids if not _one_line(pid))
            raise ValueError(f"problem id {bad!r} contains a line break")
        longest = max(map(len, ids))
    else:
        longest = grid.shape[1]
    _check_label(label, form)
    limit = csv.field_size_limit()
    if longest > limit or (form == "records" and len(label) > limit):
        raise ValueError(f"problem ids and record-form run labels may not exceed {limit} characters")
    if form == "compact" and conf is not None:
        raise ValueError("the compact form holds no confidences; write this log in record form")
    meta = {k: v for k, v in log.metadata.items() if k != "run_label"}
    matrix = log.correctness
    tag = _quote(label)
    if form == "compact":
        meta["run_label"] = label
        header = ",".join(["problem_id"] + [f"it{k}" for k in range(matrix.shape[1])])
    else:
        header = ",".join(_RECORD_HEADER)
    head = (_directives(meta) + header + "\n").encode("utf-8")
    if grid is not None:
        return _matrix_file(head, grid, matrix, form, tag)
    return _ragged_file(head, ids, matrix, form, tag, conf)


def _line_suffixes(form: str, width: int, tag: str) -> tuple[list[bytes], list[list[int]]]:
    """What follows the id on each line of one problem, with "0" at its bits, and the columns of those bits."""
    if form == "compact":
        return [b",0" * width + b"\n"], [list(range(1, 2 * width, 2))]
    # the digits of k widen at k = 10, so each line has its own suffix
    tag_bytes = tag.encode("utf-8")
    return [b",%d,0,,%s\n" % (k, tag_bytes) for k in range(width)], [[len(str(k)) + 2] for k in range(width)]


def _matrix_layout(form: str, width: int, tag: str, w: int) -> tuple[bytes, list[int], list[int]]:
    """The template row of ``_matrix_file`` for ids ``w`` bytes wide, and its bit and line-end columns.

    The row holds every line of one problem, with "0" in its id columns
    and at its bits; ``_matrix_candidate`` reads a file by the same row.
    """
    template, bit_cols, end_cols = b"", [], []
    for suffix, bits in zip(*_line_suffixes(form, width, tag)):
        bit_cols += [len(template) + w + b for b in bits]
        template += b"0" * w + suffix
        end_cols.append(len(template) - 1)
    return template, bit_cols, end_cols


def _items(buf: np.ndarray, width: int) -> np.ndarray:
    """Each run of ``width`` bytes of ``buf`` as one V{width} item, item i starting at byte i (a view)."""
    return np.ndarray((len(buf) - width + 1,), dtype=f"V{width}", buffer=buf, strides=(1,))


def _matrix_file(head: bytes, grid: np.ndarray, matrix: np.ndarray, form: str, tag: str) -> bytearray:
    """The file for a log that keeps its id grid ``grid`` (ASCII, no byte to quote), built as one byte matrix.

    Each row of the matrix is the template row of ``_matrix_layout``. Its
    lines are filled in runs of one length (in record form one run per
    digit width of k, in compact form the one line), each run as an
    ``(n, lines, length)`` block: the ids go into every line of it as one
    broadcast copy, and the bits as one add per bit column of a line.
    """
    n, width = matrix.shape
    w = grid.shape[1]
    template, _, _ = _matrix_layout(form, width, tag, w)
    out = bytearray(len(head) + n * len(template))  # filled in place: no copy to bytes
    out[: len(head)] = head
    body = np.frombuffer(out, dtype=np.uint8, offset=len(head)).reshape(n, len(template))
    body[:] = np.frombuffer(template, dtype=np.uint8)
    bits = matrix.view(np.uint8)
    suffixes, bit_at = _line_suffixes(form, width, tag)
    at = line = k = 0  # the run's first column in the row, its first line and its first bit
    for size, run in groupby(map(len, suffixes)):
        lines, length, cols = len(list(run)), w + size, bit_at[line]  # its lines hold their bits at one place
        block = np.ndarray((n, lines, length), dtype=np.uint8, buffer=body, offset=at,
                           strides=(len(template), length, 1))
        if w:  # one V{w} item per id, copied as one unit
            block[:, :, :w].view(f"V{w}")[..., 0] = grid.view(f"V{w}")
        for j, col in enumerate(cols):  # "0" + 1 is "1"
            block[:, :, w + col] += bits[:, k + j : k + lines * len(cols) : len(cols)]
        at, line, k = at + lines * length, line + lines, k + lines * len(cols)
    return out


def _ragged_file(head: bytes, ids: Sequence[str], matrix: np.ndarray, form: str, tag: str,
                 conf: np.ndarray | None = None) -> bytearray:
    """The file for any log ``_matrix_file`` does not take, built in one byte array.

    Each id is quoted as ``_quote`` quotes it, over the ids as a whole:
    every '"' is doubled in one pass over the joined ids, and each id that
    holds "," or '"' goes between two quotes. Line k of every problem is
    written as one V item per id (the ids grouped by byte width) and one
    V item per suffix (its bits added). ``conf``, record form only, has a
    cell filled: each distinct bit pattern (-0.0 is not 0.0) takes one
    ``repr``, and a filled cell's text goes in as one V item (grouped by
    width) after its line's ",k,b,", with the line's ",tag\n" after it.
    """
    n, width = matrix.shape
    # every '"' doubled in one pass (no copy if there is none); an unencodable id fails here
    raw = np.frombuffer("\n".join(ids).replace('"', '""').encode("utf-8"), dtype=np.uint8)
    breaks = np.append(np.flatnonzero(raw == ord("\n")), len(raw))  # where each id ends
    starts = np.concatenate(([0], breaks[:-1] + 1))
    size = breaks - starts  # each id's bytes, its '"' doubled
    quoted = np.zeros(n, dtype=bool)
    quoted[np.searchsorted(breaks, np.flatnonzero((raw == ord(",")) | (raw == ord('"'))))] = True
    written = size + 2 * quoted
    suffixes, bit_at = _line_suffixes(form, width, tag)
    block = len(suffixes) * written + sum(map(len, suffixes))  # the bytes of each problem's lines
    if conf is not None:
        filled = ~np.isnan(conf.T)  # by line: line k's cells come together, in problem order
        keys, code = np.unique(conf.T[filled].view(np.uint64), return_inverse=True)
        texts = [repr(v) for v in keys.view(np.float64).tolist()]
        text = np.frombuffer("".join(texts).encode("ascii"), dtype=np.uint8)
        text_size = np.array(list(map(len, texts)), dtype=np.uint8)  # at most 24
        text_at = np.cumsum(text_size, dtype=np.int64) - text_size
        cell_size = np.zeros(filled.shape, dtype=np.uint8)  # 0 where empty
        cell_size[filled] = text_size[code]
        block += cell_size.sum(axis=0, dtype=np.int64)
    out = bytearray(len(head) + int(block.sum()))  # filled in place: no copy to bytes
    out[: len(head)] = head
    body = np.frombuffer(out, dtype=np.uint8)
    at = np.cumsum(block) - block + len(head)  # where each problem's next line starts
    by_width = [(w, np.flatnonzero(size == w)) for w in np.flatnonzero(np.bincount(size)) if w]  # few widths
    groups = [(_items(body, w), g, _items(raw, w)[starts[g]]) for w, g in by_width]
    quotes = np.flatnonzero(quoted)
    bits, k = matrix.view(np.uint8), 0
    for j, (suffix, cols) in enumerate(zip(suffixes, bit_at)):
        for dst, g, src in groups:  # one V item per id
            dst[at[g] + quoted[g]] = src
        body[at[quotes]] = body[at[quotes] + written[quotes] - 1] = ord('"')
        at += written
        line = np.tile(np.frombuffer(suffix, dtype=np.uint8), (n, 1))
        for col in cols:
            line[:, col] += bits[:, k]  # "0" + 1 is "1"
            k += 1
        _items(body, len(suffix))[at] = line.view(f"V{len(suffix)}")[:, 0]
        if conf is not None:  # a filled cell's text over the ",tag\n" just written, then ",tag\n" again
            rows = np.flatnonzero(cell_size[j])
            sizes, cells, code = cell_size[j, rows], code[: len(rows)], code[len(rows) :]
            cut, tail = cols[0] + 2, suffix[cols[0] + 2 :]  # past ",k,b,"; ",tag\n"
            text_start = at[rows] + cut
            for w in np.flatnonzero(np.bincount(sizes)):
                pick = sizes == w
                _items(body, w)[text_start[pick]] = _items(text, w)[text_at[cells[pick]]]
            _items(body, len(tail))[text_start + sizes] = np.frombuffer(tail, f"V{len(tail)}")
            at[rows] += sizes
        at += len(suffix)
    return out


def write_log(log: CorrectnessLog, path, form: str = "records", run_label: str | None = None) -> None:
    """Write one run to ``path`` in record or compact form.

    Raises ValueError, before the file is created, for input that
    ``read_runs`` would not give back unchanged.
    """
    label = run_label if run_label is not None else log.metadata.get("run_label", _DEFAULT_RUN)
    data = _encode(log, form, label)
    with open(path, "wb") as fh:
        fh.write(data)
