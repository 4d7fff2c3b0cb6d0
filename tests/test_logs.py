"""Correctness-log format: round trips and line-numbered failures."""

import copy
import csv
import dataclasses
import io
import math
import pickle
import re
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from refineloop import SimConfig, logs, preset, simulate_population
from refineloop.cli import EXIT_DATA, main
from refineloop.logs import (
    FORMAT_VERSION,
    CorrectnessLog,
    LogFormatError,
    align_rows,
    read_log,
    read_runs,
    write_log,
)
from refineloop.simulate import _problem_ids


_FIELD_LIMIT = csv.field_size_limit()
# confidences that are hard to write and read back: nan, infinities, signed zero, subnormals
_CONFIDENCES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -1e-310]), st.floats()
)


def _no_csv(data):
    raise AssertionError("read_runs took the csv path")


def _toy_log(with_confidence=False):
    matrix = np.array(
        [
            [1, 1, 0],
            [0, 1, 1],
            [1, 0, 0],
            [0, 0, 0],
        ],
        dtype=bool,
    )
    conf = None
    if with_confidence:
        conf = np.full(matrix.shape, math.nan)
        conf[0, 0] = 9.0
        conf[1, 2] = 5.5
    return CorrectnessLog(
        problem_ids=["a", "b", "c", "d"],
        correctness=matrix,
        metadata={"source": "unit-test", "seed": "7"},
        confidence=conf,
    )


def test_format_version_constant():
    assert FORMAT_VERSION == "correctness-log/v1"


@pytest.mark.parametrize("form", ["records", "compact"])
def test_round_trip(tmp_path, form):
    log = _toy_log()
    path = tmp_path / "log.csv"
    write_log(log, path, form=form, run_label="trial")
    back = read_log(path)
    assert back.problem_ids == log.problem_ids
    assert np.array_equal(back.correctness, log.correctness)
    assert back.metadata["source"] == "unit-test"
    assert back.metadata["seed"] == "7"


def test_record_round_trip_keeps_confidence(tmp_path):
    log = _toy_log(with_confidence=True)
    path = tmp_path / "log.csv"
    write_log(log, path, form="records")
    back = read_log(path)
    assert back.confidence is not None
    assert back.confidence[0, 0] == 9.0
    assert back.confidence[1, 2] == 5.5
    assert math.isnan(back.confidence[2, 1])


def test_written_file_shape(tmp_path):
    path = tmp_path / "log.csv"
    write_log(_toy_log(), path, form="compact", run_label="t")
    lines = path.read_text().splitlines()
    assert lines[0] == f"#{FORMAT_VERSION}"
    meta = [line for line in lines if line.startswith("#meta:")]
    assert meta == sorted(meta)  # deterministic directive order
    header = [line for line in lines if not line.startswith("#")][0]
    assert header == "problem_id,it0,it1,it2"


def test_multi_run_file(tmp_path):
    path = tmp_path / "log.csv"
    body = [f"#{FORMAT_VERSION}", "problem_id,iteration,correct,confidence,run_label"]
    for pid, bits in (("a", "10"), ("b", "01")):
        for k, bit in enumerate(bits):
            body.append(f"{pid},{k},{bit},,first")
    for pid, bits in (("a", "11"), ("b", "11")):
        for k, bit in enumerate(bits):
            body.append(f"{pid},{k},{bit},,second")
    path.write_text("\n".join(body) + "\n")
    runs = read_runs(path)
    assert sorted(runs) == ["first", "second"]
    assert runs["first"].accuracy(0) == 0.5
    assert runs["second"].accuracy(1) == 1.0
    with pytest.raises(LogFormatError, match="2 runs"):
        read_log(path)


def test_three_column_record_prefix_accepted(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        f"#{FORMAT_VERSION}\n"
        "problem_id,iteration,correct\n"
        "x,0,1\nx,1,0\ny,0,0\ny,1,1\n"
    )
    log = read_log(path)
    assert log.n_problems == 2
    assert log.n_iterations == 1
    assert log.accuracy(0) == 0.5


def test_run_label_metadata_directive(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        f"#{FORMAT_VERSION}\n#meta:run_label=named\nproblem_id,it0\np0,1\np1,0\n"
    )
    runs = read_runs(path)
    assert list(runs) == ["named"]
    # the label is carried as the run key, not duplicated in metadata
    assert "run_label" not in runs["named"].metadata


def test_blank_lines_between_directives_are_skipped(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(f"#{FORMAT_VERSION}\n#meta:seed=7\n\n  \n#meta:source=x\nproblem_id,it0\np,1\n")
    log = read_log(path)
    assert log.metadata == {"seed": "7", "source": "x"}
    assert list(log.problem_ids) == ["p"]


@pytest.mark.parametrize(
    "content,expect_line,fragment",
    [
        ("", 1, "empty file"),
        ("problem_id,it0\np,1\n", 1, "version header"),
        (f"#{FORMAT_VERSION}\n#bogus\nproblem_id,it0\np,1\n", 2, "unknown directive"),
        (f"#{FORMAT_VERSION}\n#meta:noequals\nproblem_id,it0\np,1\n", 2, "key=value"),
        pytest.param(f"#{FORMAT_VERSION}\n#meta:seed=7\n#meta:seed=8\nproblem_id,it0\np,1\n", 3,
                     "repeated metadata key 'seed'", id="repeated-meta-key"),
        pytest.param(f"#{FORMAT_VERSION}\n#meta:seed=7\n\n#meta: seed =8\nproblem_id,it0\np,1\n", 4,
                     "repeated metadata key 'seed'", id="repeated-meta-key-after-blank"),
        pytest.param(f"#{FORMAT_VERSION}\n#meta:seed=7\n\n#bogus\nproblem_id,it0\np,1\n", 4,
                     "unknown directive", id="directive-after-blank"),
        (f"#{FORMAT_VERSION}\nwhat,ever\n", 2, "unrecognized column header"),
        (f"#{FORMAT_VERSION}\nproblem_id,iteration,correct\np,0,2\n", 3, "correct must be 0 or 1"),
        (f"#{FORMAT_VERSION}\nproblem_id,iteration,correct\np,zero,1\n", 3, "iteration must be an integer"),
        (f"#{FORMAT_VERSION}\nproblem_id,iteration,correct\np,-1,1\n", 3, "iteration must be >= 0"),
        (f"#{FORMAT_VERSION}\nproblem_id,iteration,correct,confidence\np,0,1,high\n", 3,
         "confidence must be a number, got 'high'"),
        (f"#{FORMAT_VERSION}\n#meta:seed=7\n", None, "no column header"),
        (f"#{FORMAT_VERSION}\nproblem_id,iteration,confidence\np,0,1\n", 2, "record header must be a prefix"),
        (f"#{FORMAT_VERSION}\nproblem_id,iteration,correct\np,0,1\np,0,1\n", 4, "duplicate record"),
        (f"#{FORMAT_VERSION}\nproblem_id,it0,it1\np,1\n", 3, "expected 3 fields"),
        (f"#{FORMAT_VERSION}\nproblem_id,it0\n", None, "no records"),
        (f"#{FORMAT_VERSION}\nproblem_id,it0,it1\np0,1,0\np1,0,1\np0,1,1\n", 5, "duplicate row for problem 'p0'"),
        pytest.param(
            f"#{FORMAT_VERSION}\nproblem_id,it0\n{'x' * (_FIELD_LIMIT + 1)},1\n", 3, "field limit", id="over-field-limit"
        ),
        # "\x85" ends a line for str.splitlines: write_log refuses such an id, so the fast path must too
        pytest.param(f"#{FORMAT_VERSION}\n#meta:run_label=run\nproblem_id,it0,it1\na\x85b,1,0\n", 4,
                     "expected 3 fields, got 1", id="next-line-in-compact-id"),
        # blank and whitespace-only lines are skipped but still counted
        (f"#{FORMAT_VERSION}\n\n  \nproblem_id,iteration,correct\np,0,1\n\t\n\np,1,1\nq,0,x\n", 9, "correct must be"),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, content, expect_line, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(LogFormatError) as err:
        read_runs(path)
    assert fragment in str(err.value)
    assert err.value.line == expect_line


def test_log_that_is_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(f"#{FORMAT_VERSION}\nproblem_id,iteration,correct\np0,0,1\n".encode() + b"p\xff,0,1\n")
    with pytest.raises(LogFormatError, match="^line 4: not UTF-8: 'utf-8' codec can't decode byte 0xff") as err:
        read_runs(path)
    assert err.value.line == 4
    assert main(["analyze", str(path), "--out", str(tmp_path / "out")]) == EXIT_DATA


def test_non_contiguous_iterations_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        f"#{FORMAT_VERSION}\nproblem_id,iteration,correct\np,0,1\np,2,1\n"
    )
    with pytest.raises(LogFormatError, match="contiguous"):
        read_runs(path)


def test_ragged_runs_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        f"#{FORMAT_VERSION}\nproblem_id,iteration,correct\n"
        "p,0,1\np,1,1\nq,0,1\n"
    )
    with pytest.raises(LogFormatError, match="disagree on iteration count"):
        read_runs(path)


@pytest.mark.parametrize("bad", [2, 0.5, -1, math.nan])
def test_log_refuses_correctness_entries_other_than_0_and_1(bad):
    with pytest.raises(ValueError, match=re.escape("correctness entries must be 0/1")):
        CorrectnessLog(problem_ids=["a", "b"], correctness=np.array([[1, 0], [bad, 1]]))
    log = CorrectnessLog(problem_ids=["a", "b"], correctness=np.array([[1, 0], [0.0, 1]]))
    assert log.correctness.dtype == np.bool_
    assert log.correctness.tolist() == [[True, False], [False, True]]


def test_log_validation():
    for matrix in (np.ones(2, dtype=bool), np.ones((0, 2), dtype=bool), np.ones((2, 0), dtype=bool)):
        with pytest.raises(ValueError, match=re.escape(f"non-empty 2-d matrix, got shape {matrix.shape}")):
            CorrectnessLog(problem_ids=["a", "b"][: len(matrix)], correctness=matrix)
    with pytest.raises(ValueError, match="unique"):
        CorrectnessLog(problem_ids=["a", "a"], correctness=np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="0/1"):
        CorrectnessLog(problem_ids=["a"], correctness=np.array([[2, 1]]))
    with pytest.raises(ValueError, match="ids for"):
        CorrectnessLog(problem_ids=["a"], correctness=np.ones((2, 2), dtype=bool))
    with pytest.raises(ValueError, match="shape"):
        CorrectnessLog(
            problem_ids=["a"],
            correctness=np.ones((1, 2), dtype=bool),
            confidence=np.ones((1, 3)),
        )
    # an id is a str as given, never one made by str(): 1 and "1" are not the same problem
    for ids, bad in (([1, 2.0], "1"), (["1", 1], "1"), (["a", None], "None"), (np.arange(2), "np.int64(0)")):
        with pytest.raises(ValueError, match=re.escape(f"problem ids must be strings, got {bad}")):
            CorrectnessLog(problem_ids=ids, correctness=np.ones((2, 1), dtype=bool))


def test_log_keeps_str_subclass_ids():
    ids = np.array(["a", "b"])  # numpy str_ items are a str subclass
    log = CorrectnessLog(problem_ids=ids, correctness=np.ones((2, 1), dtype=bool))
    assert list(log.problem_ids) == ["a", "b"]
    assert all(isinstance(pid, str) for pid in log.problem_ids)


def test_confidence_with_no_cell_filled_is_none():
    shape = (2, 3)
    empty = CorrectnessLog(problem_ids=["a", "b"], correctness=np.ones(shape, dtype=bool),
                           confidence=np.full(shape, np.nan))
    assert empty.confidence is None
    conf = np.full(shape, np.nan)
    conf[1, 2] = 0.25
    one = CorrectnessLog(problem_ids=["a", "b"], correctness=np.ones(shape, dtype=bool), confidence=conf)
    assert one.confidence is not None
    assert one.confidence[1, 2] == 0.25
    assert np.isnan(np.delete(one.confidence.ravel(), 5)).all()


@pytest.mark.parametrize("field, value", [
    ("correctness", np.array([[2, 0], [0, 1]])),
    ("problem_ids", ["a", "a"]),
    ("confidence", np.zeros((3, 3))),
    ("confidence", np.full((2, 2), np.nan)),
])
def test_fields_cannot_be_reassigned(field, value):
    # the constructor is the only place that checks a log, so it is the only way to set one
    log = CorrectnessLog(problem_ids=["a", "b"], correctness=np.eye(2, dtype=bool))
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(log, field, value)
    assert list(log.problem_ids) == ["a", "b"] and log.confidence is None
    trajectory = simulate_population(SimConfig(n_problems=2, n_iterations=1, initial_accuracy=0.5, seed=1,
                                               schedule=preset("o4-mini")))
    with pytest.raises(dataclasses.FrozenInstanceError):
        trajectory.log = log


def _frozen_logs(tmp_path):
    """A hand-built log with a confidence filled, the same log read back, and a simulated log."""
    conf = np.full((2, 3), np.nan)
    conf[0, 1] = 0.75
    built = CorrectnessLog(problem_ids=["a", "b"], correctness=np.eye(2, 3, dtype=bool), confidence=conf)
    write_log(built, tmp_path / "built.csv")
    simulated = simulate_population(SimConfig(n_problems=12, n_iterations=2, initial_accuracy=0.5, seed=3,
                                              schedule=preset("o4-mini"))).log
    return {"built": built, "read": read_log(tmp_path / "built.csv"), "simulated": simulated}


def test_ids_and_cells_cannot_be_written(tmp_path):
    # a write into a log could make write_log produce a file that read_runs refuses or reads differently
    for name, log in _frozen_logs(tmp_path).items():
        with pytest.raises(TypeError):
            log.problem_ids[1] = log.problem_ids[0]
        with pytest.raises(ValueError, match="read-only"):
            log.correctness[0, 0] = not log.correctness[0, 0]
        if log.confidence is not None:
            with pytest.raises(ValueError, match="read-only"):
                log.confidence[:] = np.nan
        path = tmp_path / f"{name}-again.csv"
        write_log(log, path)
        back = read_log(path)
        assert back.problem_ids == log.problem_ids, name
        assert np.array_equal(back.correctness, log.correctness), name
        assert (back.confidence is None) == (log.confidence is None), name
        if log.confidence is not None:
            assert np.array_equal(back.confidence, log.confidence, equal_nan=True), name


def test_arrays_the_caller_kept_stay_writable():
    # the log holds read-only views, not copies, so the caller's own arrays are not frozen
    bits, conf = np.eye(2, dtype=bool), np.full((2, 2), 0.5)
    CorrectnessLog(problem_ids=["a", "b"], correctness=bits, confidence=conf)
    bits[0, 0], conf[0, 0] = False, 0.25
    assert not bits[0, 0] and conf[0, 0] == 0.25


def test_simulated_ids_cannot_grow():
    assert not hasattr(_problem_ids(3), "append")


def test_str_ids_are_refused():
    # a str is a sequence of strs: "abc" would be taken as the ids "a", "b" and "c"
    with pytest.raises(ValueError, match="problem ids must be a sequence of strings, not one str"):
        CorrectnessLog(problem_ids="abc", correctness=np.ones((3, 1), dtype=bool))


@pytest.mark.parametrize("metadata", [None, [("seed", "7")], "seed=7"])
def test_metadata_that_is_not_a_mapping_is_refused(metadata):
    # write_log reads metadata as a mapping: None would fail there with an AttributeError
    with pytest.raises(ValueError, match="metadata must be a mapping"):
        CorrectnessLog(problem_ids=["a"], correctness=np.ones((1, 1), dtype=bool), metadata=metadata)


def test_accessors():
    log = _toy_log()
    assert log.n_problems == 4
    assert log.n_iterations == 2
    assert log.accuracy(0) == 0.5
    assert log.accuracy(2) == 0.25


@pytest.mark.parametrize("k", [-1, True, 2])
def test_accuracy_refuses_k_outside_0_to_k(k):
    # -1 read the last column, True column 1, and 2 raised numpy's IndexError
    log = CorrectnessLog(problem_ids=["a", "b"], correctness=np.array([[1, 0], [0, 0]]))
    with pytest.raises(ValueError, match="^k must be"):
        log.accuracy(k)


def test_integer_matrix_coerced_to_bool():
    log = CorrectnessLog(problem_ids=["a", "b"], correctness=np.array([[1, 0], [0, 1]]))
    assert log.correctness.dtype == np.bool_


def test_record_read_memory_stays_streaming(tmp_path):
    # the reader keeps one list of lines and the parsed cells, not a list of every line's fields
    log = CorrectnessLog(
        problem_ids=[f"p{i:05d}" for i in range(5_000)],
        correctness=np.arange(25_000).reshape(5_000, 5) % 3 == 0,
    )
    path = tmp_path / "log.csv"
    write_log(log, path, form="records")
    tracemalloc.start()
    try:
        back = read_log(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.correctness, log.correctness)
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_csv_path_read_memory_stays_streaming(tmp_path):
    # the file above takes the fast path; "\r\n" line endings send this one through csv, which
    # must keep one list of lines and the parsed cells, not a list of every line's fields
    log = CorrectnessLog(
        problem_ids=[f"p,{i:05d}" for i in range(5_000)],
        correctness=np.arange(25_000).reshape(5_000, 5) % 3 == 0,
    )
    path = tmp_path / "log.csv"
    path.write_bytes(logs._encode(log, "records", "run").replace(b"\n", b"\r\n"))
    assert logs._read_canonical(path.read_bytes()) is None
    tracemalloc.start()
    try:
        back = read_log(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.correctness, log.correctness)
    assert peak < 10 * 2**20, f"peak {peak / 2**20:.1f} MiB"


# -- writer refuses what the reader cannot give back ---------------------------------

_LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("form", ["records", "compact"])
@pytest.mark.parametrize(
    "metadata,run_label",
    [
        ({"k=x": "v"}, "t"),
        ({"": "v"}, "t"),
        ({" k": "v"}, "t"),
        ({"k": "v "}, "t"),
        ({"k": "\tv"}, "t"),
    ]
    + [({"k": f"a{br}b"}, "t") for br in _LINE_BREAKS]
    + [({f"k{br}": "v"}, "t") for br in _LINE_BREAKS]
    + [({}, f"a{br}b") for br in _LINE_BREAKS]
    # anything but a str would read back as a str
    + [({"seed": 7}, "t"), ({"x": None}, "t"), ({5: "v"}, "t"), ({"k": "v", 5: "v"}, "t"), ({}, 5),
       ({"run_label": 5}, None)],  # the last label comes from the metadata
)
def test_write_refuses_unreadable_text(tmp_path, form, metadata, run_label):
    log = CorrectnessLog(problem_ids=["a"], correctness=np.array([[1, 0]]), metadata=metadata)
    path = tmp_path / "log.csv"
    with pytest.raises(ValueError):
        write_log(log, path, form=form, run_label=run_label)
    assert not path.exists()


def test_write_refuses_metadata_that_is_not_a_string(tmp_path):
    log = CorrectnessLog(problem_ids=["a"], correctness=np.array([[1]]), metadata={"seed": 7, "x": None})
    with pytest.raises(ValueError, match="metadata 'seed'=7: key and value must be one-line strings"):
        write_log(log, tmp_path / "log.csv")
    assert not (tmp_path / "log.csv").exists()


def test_write_refuses_an_unknown_form(tmp_path):
    with pytest.raises(ValueError, match="form must be 'records' or 'compact', got 'rows'"):
        write_log(_toy_log(), tmp_path / "log.csv", form="rows")
    assert not (tmp_path / "log.csv").exists()


@pytest.mark.parametrize("form", ["records", "compact"])
# the last case is an id longer than csv.field_size_limit(), which read_runs refuses
@pytest.mark.parametrize("br", _LINE_BREAKS + [pytest.param("x" * _FIELD_LIMIT, id="over-field-limit")])
def test_write_refuses_line_break_in_id(tmp_path, form, br):
    log = CorrectnessLog(problem_ids=["a", f"b{br}c"], correctness=np.array([[1], [0]]))
    path = tmp_path / "log.csv"
    with pytest.raises(ValueError, match="problem id"):
        write_log(log, path, form=form)
    assert not path.exists()


@pytest.mark.parametrize(
    "form,run_label",
    [("compact", " t"), ("compact", "t "), ("records", ""),
     pytest.param("records", "x" * (_FIELD_LIMIT + 1), id="records-over-field-limit")],
)
def test_write_refuses_label_it_cannot_read_back(tmp_path, form, run_label):
    path = tmp_path / "log.csv"
    with pytest.raises(ValueError):
        write_log(_toy_log(), path, form=form, run_label=run_label)
    assert not path.exists()


def test_record_label_keeps_surrounding_spaces(tmp_path):
    path = tmp_path / "log.csv"
    write_log(_toy_log(), path, form="records", run_label=" t ")
    assert list(read_runs(path)) == [" t "]


@pytest.mark.parametrize("form", ["records", "compact"])
def test_fields_at_the_limit_read_back(tmp_path, form):
    ids = ["x" * _FIELD_LIMIT, '"' * _FIELD_LIMIT]  # quotes are doubled on disk, counted once by the reader
    log = CorrectnessLog(problem_ids=ids, correctness=np.array([[1, 0], [0, 1]]))
    path = tmp_path / "log.csv"
    write_log(log, path, form=form, run_label="y" * _FIELD_LIMIT)
    assert list(read_runs(path)["y" * _FIELD_LIMIT].problem_ids) == ids


@pytest.mark.parametrize("form", ["records", "compact"])
@given(
    ids=st.lists(st.text(max_size=6), min_size=1, max_size=4, unique=True),
    width=st.integers(1, 3),
    bits=st.data(),
    metadata=st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=3),
    run_label=st.one_of(st.none(), st.text(max_size=6)),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_accepted_logs_read_back_equal(tmp_path, monkeypatch, form, ids, width, bits, metadata, run_label):
    monkeypatch.setattr(logs, "_read_csv", _no_csv)  # every file write_log writes takes the fast path
    matrix = bits.draw(arrays(bool, (len(ids), width)))
    conf = None
    if form == "records":
        conf = bits.draw(st.none() | arrays(float, matrix.shape, elements=_CONFIDENCES))
    log = CorrectnessLog(problem_ids=ids, correctness=matrix, metadata=metadata, confidence=conf)
    path = tmp_path / f"{form}.csv"
    path.unlink(missing_ok=True)
    try:
        write_log(log, path, form=form, run_label=run_label)
    except ValueError:
        assert not path.exists()
        return
    label = run_label if run_label is not None else metadata.get("run_label", "run")
    runs = read_runs(path)
    assert list(runs) == [label]
    back = runs[label]
    assert list(back.problem_ids) == ids
    assert np.array_equal(back.correctness, matrix)
    assert back.metadata == {k: v for k, v in metadata.items() if k != "run_label"}
    if conf is None or np.isnan(conf).all():
        assert back.confidence is None
    else:
        assert np.array_equal(back.confidence, conf, equal_nan=True)
        # an empty cell reads back as a positive nan; every number keeps its sign
        assert np.array_equal(np.signbit(back.confidence), np.signbit(conf) & ~np.isnan(conf))


def test_compact_form_refuses_confidences(tmp_path):
    path = tmp_path / "log.csv"
    with pytest.raises(ValueError, match="confidences"):
        write_log(_toy_log(with_confidence=True), path, form="compact")
    assert not path.exists()


# -- the encoder, and the two ways read_runs reads a file -----------------------------


def _csv_writer_bytes(log, form, label):
    """The oracle for ``_encode``: the bytes of one ``csv.writer`` row per line."""
    out = io.StringIO()
    meta = {k: v for k, v in log.metadata.items() if k != "run_label"}
    if form == "compact":
        meta["run_label"] = label
    out.write(f"#{FORMAT_VERSION}\n")
    for key in sorted(meta):
        out.write(f"#meta:{key}={meta[key]}\n")
    writer = csv.writer(out, lineterminator="\n")
    if form == "compact":
        writer.writerow(["problem_id"] + [f"it{k}" for k in range(log.correctness.shape[1])])
        for pid, row in zip(log.problem_ids, log.correctness):
            writer.writerow([pid] + ["1" if c else "0" for c in row])
    else:
        writer.writerow(["problem_id", "iteration", "correct", "confidence", "run_label"])
        conf = log.confidence
        for i, pid in enumerate(log.problem_ids):
            for k in range(log.correctness.shape[1]):
                cell = ""
                if conf is not None and not math.isnan(conf[i, k]):
                    cell = repr(float(conf[i, k]))
                writer.writerow([pid, k, "1" if log.correctness[i, k] else "0", cell, label])
    return out.getvalue().encode("utf-8")


@pytest.mark.parametrize("form", ["records", "compact"])
@given(
    ids=st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True),
    width=st.integers(1, 4),
    data=st.data(),
    metadata=st.dictionaries(st.text(max_size=4), st.text(max_size=4), max_size=2),
    label=st.text(max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_encode_matches_the_csv_writer(form, ids, width, data, metadata, label):
    matrix = data.draw(arrays(bool, (len(ids), width)))
    conf = None
    if form == "records":
        conf = data.draw(st.none() | arrays(float, matrix.shape, elements=_CONFIDENCES))
    log = CorrectnessLog(problem_ids=ids, correctness=matrix, metadata=metadata, confidence=conf)
    try:
        encoded = logs._encode(log, form, label)
    except ValueError:  # a refusal; test_accepted_logs_read_back_equal covers what is accepted
        return
    assert encoded == _csv_writer_bytes(log, form, label)


# ids of one width: plain ASCII; all quoted (a comma, or a comma and a quote, in every id); and
# non-ASCII of one character width. Given as strs, every one takes the byte array writer
_ONE_WIDTH_IDS = {
    "ascii": lambda w: st.text("ab0 #", min_size=w, max_size=w),
    "comma": lambda w: st.text("ab", min_size=w, max_size=w).map(lambda s: s + ",1"),
    "quote": lambda w: st.text("ab", min_size=w, max_size=w).map(lambda s: s + ',"'),
    "non-ascii": lambda w: st.text("a\u00e9\u2603", min_size=w, max_size=w),
}


@pytest.mark.parametrize("form", ["records", "compact"])
@pytest.mark.parametrize("kind", sorted(_ONE_WIDTH_IDS))
@given(
    width=st.integers(0, 4),
    columns=st.integers(1, 13),  # past k = 10, where a record line's iteration widens
    data=st.data(),
    label=st.sampled_from(["run", 'say "hi", run', ",", "\u00e9"]) | st.text(max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_encode_of_one_width_ids_matches_the_csv_writer(form, kind, width, columns, data, label):
    ids = data.draw(st.lists(_ONE_WIDTH_IDS[kind](width), min_size=1, max_size=5, unique=True))
    matrix = data.draw(arrays(bool, (len(ids), columns)))
    conf = None
    if form == "records":
        conf = data.draw(st.none() | st.just(np.full(matrix.shape, math.nan))
                         | arrays(float, matrix.shape, elements=_CONFIDENCES))
    log = CorrectnessLog(problem_ids=ids, correctness=matrix, confidence=conf)
    with mock.patch.object(logs, "_matrix_file", wraps=logs._matrix_file) as matrix_file:
        try:
            encoded = logs._encode(log, form, label)
        except ValueError:
            return
    assert encoded == _csv_writer_bytes(log, form, label)
    assert not matrix_file.called  # a log of strs keeps no id grid


def _outcome(read):
    """What a read gives: each run's contents, or the error's type, message and line."""
    try:
        runs = read()
    except Exception as err:  # noqa: BLE001 - compared, not handled
        return type(err), str(err), getattr(err, "line", None)
    return [
        (label, log.problem_ids, log.correctness.tolist(), log.metadata,
         None if log.confidence is None else repr(log.confidence.tolist()))
        for label, log in runs.items()
    ]


_MUTATIONS = ("flip", "drop", "duplicate", "swap", "insert-cr", "insert-quote", "insert-nel", "relabel", "long-id")


@pytest.mark.parametrize("form", ["records", "compact"])
@given(
    ids=st.lists(st.from_regex(r"[a-z0-9 #]{0,3}", fullmatch=True) | st.text(max_size=3),
                 min_size=1, max_size=4, unique=True),
    width=st.integers(1, 3),
    data=st.data(),
    mutation=st.sampled_from(_MUTATIONS),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fast_and_csv_paths_agree_on_mutated_files(tmp_path, form, ids, width, data, mutation):
    log = CorrectnessLog(problem_ids=ids, correctness=data.draw(arrays(bool, (len(ids), width))),
                         metadata={"seed": "7"})
    try:
        text = logs._encode(log, form, "run").decode("utf-8")
    except ValueError:
        return
    lines = text.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    row = data.draw(st.integers(header + 1, len(lines) - 1))
    if mutation == "flip":
        at = data.draw(st.sampled_from([i for i, c in enumerate(text) if c in "01"]))
        text = text[:at] + "10"[int(text[at])] + text[at + 1:]
    elif mutation.startswith("insert"):
        start = len("".join(lines[:row]))
        at = data.draw(st.integers(start, start + len(lines[row]) - 1))  # inside one row
        text = text[:at] + {"insert-cr": "\r", "insert-quote": '"', "insert-nel": "\x85"}[mutation] + text[at:]
    else:
        if mutation == "drop":
            del lines[data.draw(st.integers(0, len(lines) - 1))]
        elif mutation == "duplicate":
            lines.insert(row, lines[row])
        elif mutation == "swap":
            other = data.draw(st.integers(0, len(lines) - 1))
            lines[row], lines[other] = lines[other], lines[row]
        elif mutation == "relabel":  # the row's last field
            lines[row] = lines[row].rstrip("\n").rsplit(",", 1)[0] + ",other\n"
        else:  # long-id
            lines[row] = "x" * (_FIELD_LIMIT + 1) + lines[row][lines[row].index(","):]
        text = "".join(lines)
    path = tmp_path / "mutated.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(lambda: read_runs(path)) == _outcome(lambda: logs._read_csv(path.read_bytes()))


_SAME_LENGTH_MUTATIONS = ("flip", "swap", "relabel", "duplicate", "copy-id")


@pytest.mark.parametrize("form", ["records", "compact"])
@given(
    width=st.integers(0, 4),
    columns=st.integers(1, 13),  # past k = 10, where a record line's iteration widens
    data=st.data(),
    label=st.sampled_from(["run", 'a "b", c']),
    mutation=st.sampled_from(_SAME_LENGTH_MUTATIONS),
)
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fast_and_csv_paths_agree_on_mutated_one_width_files(tmp_path, form, width, columns, data, label, mutation):
    # ids of one width (all quoted, if each holds a comma) are read as rows of one template; each mutation
    # keeps every line's length, so the file still splits into rows of it
    ids = data.draw(st.lists(st.text("ab0 #,", min_size=width, max_size=width), min_size=1, max_size=5, unique=True))
    log = CorrectnessLog(problem_ids=ids, correctness=data.draw(arrays(bool, (len(ids), columns))))
    text = logs._encode(log, form, label).decode("utf-8")
    lines = text.splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    row = data.draw(st.integers(header + 1, len(lines) - 1))
    if mutation == "flip":
        at = data.draw(st.sampled_from([i for i, c in enumerate(text) if c in "01"]))
        text = text[:at] + "10"[int(text[at])] + text[at + 1:]
    else:
        if mutation == "swap":  # with another line of its length, the header among them
            other = data.draw(st.sampled_from([i for i, line in enumerate(lines) if len(line) == len(lines[row])]))
            lines[row], lines[other] = lines[other], lines[row]
        elif mutation == "relabel":  # the row's last field, at its length
            head, last = lines[row].rstrip("\n").rsplit(",", 1)
            lines[row] = head + "," + "x" * len(last) + "\n"
        elif mutation == "duplicate":
            lines.insert(row, lines[row])
        else:  # copy-id: another line's first `width` characters over this line's: often a repeated id
            other = data.draw(st.integers(header + 1, len(lines) - 1))
            lines[row] = lines[other][:width] + lines[row][width:]
        text = "".join(lines)
    path = tmp_path / "mutated.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _outcome(lambda: read_runs(path)) == _outcome(lambda: logs._read_csv(path.read_bytes()))


def _read_by_line_ends(path):
    """``read_runs(path)`` for a file ``_ragged_file`` wrote: the template guess is turned away before any encode."""
    data = path.read_bytes()
    with pytest.raises(ValueError, match="template row"):  # refused by its row tests
        logs._matrix_candidate(data, logs._head(data))
    with mock.patch.object(logs, "_encode", wraps=logs._encode) as encode:
        runs = read_runs(path)
    assert encode.call_count == 1  # the check of the line-end reader's guess
    return runs


_FAST_IDS = [f"p{i}" for i in range(300)]
_PADDED_IDS = [f"p{i:03d}" for i in range(300)]  # _FAST_IDS at one width
_QUOTED_IDS = ["a,1", 'say "hi"', '"', ","] + _FAST_IDS[4:]
# a third of the cells filled, among them a small exponent, both signed zeros in one column, a 17-digit
# repr, infinities, the smallest subnormal, the longest repr (24 bytes) and one value in 100 cells
_FILLED = np.where(np.arange(1500).reshape(300, 5) % 3 == 0, np.linspace(0, 10, 1500).reshape(300, 5), np.nan)
_FILLED[0, 0], _FILLED[3, 3], _FILLED[9, 3], _FILLED[6, 1] = 1e-05, -0.0, 0.0, 0.1 + 0.2
_FILLED[12, 0], _FILLED[15, 2], _FILLED[18, 4], _FILLED[21, 1] = math.inf, -math.inf, 5e-324, -2.2250738585072014e-308
_FILLED[100:200, 2] = 0.75


@pytest.mark.parametrize(
    "form,ids,label,conf",
    [
        pytest.param("records", _FAST_IDS, "fast", None, id="records"),
        pytest.param("compact", _FAST_IDS, "fast", None, id="compact"),
        pytest.param("compact", _QUOTED_IDS, "fast", None, id="compact-quoted-id"),
        pytest.param("records", _QUOTED_IDS, "fast", None, id="records-quoted-id"),
        pytest.param("records", _FAST_IDS, 'a "fast", run', None, id="records-quoted-label"),
        pytest.param("records", _QUOTED_IDS, "fast", _FILLED, id="records-confidence"),
        pytest.param("records", _PADDED_IDS, "fast", _FILLED, id="records-confidence-one-width"),
    ],
)
def test_written_files_take_the_fast_path(tmp_path, monkeypatch, form, ids, label, conf):
    monkeypatch.setattr(logs, "_read_csv", _no_csv)
    log = CorrectnessLog(problem_ids=ids, correctness=np.arange(1500).reshape(300, 5) % 7 < 3,
                         metadata={"seed": "3"}, confidence=conf)
    path = tmp_path / "log.csv"
    with mock.patch.object(logs, "_ragged_file", wraps=logs._ragged_file) as ragged:
        write_log(log, path, form=form, run_label=label)
        back = _read_by_line_ends(path)[label]
    if conf is not None:  # any filled log, ids of one width too, is written in one byte array
        assert ragged.call_count == 2  # the write, and the check of the read
    assert back.problem_ids == log.problem_ids
    assert np.array_equal(back.correctness, log.correctness)
    assert back.metadata == {"seed": "3"}
    if conf is None:
        assert back.confidence is None
    else:
        assert repr(back.confidence.tolist()) == repr(conf.tolist())  # nan where empty, each float's bits


def test_a_filled_log_that_splits_into_template_rows_is_read_by_its_line_ends(tmp_path, monkeypatch):
    # every confidence "0.25" and k < 10: every line has one length, so the template reader's guess (five
    # lines per problem, counted from the parsed id, and ids "p000,0,1") passes its row tests; its encode
    # differs, and the line-end reader runs
    monkeypatch.setattr(logs, "_read_csv", _no_csv)
    bits = np.arange(100).reshape(20, 5) % 3 == 0
    log = CorrectnessLog(problem_ids=_PADDED_IDS[:20], correctness=bits, confidence=np.full(bits.shape, 0.25))
    path = tmp_path / "log.csv"
    write_log(log, path, form="records")
    data = path.read_bytes()
    guess = logs._matrix_candidate(data, logs._head(data))
    assert guess.correctness.shape == (20, 5) and guess.problem_ids[0] == "p000,0,1"
    with mock.patch.object(logs, "_encode", wraps=logs._encode) as encode:
        back = read_log(path)
    assert encode.call_count == 2
    assert back.problem_ids == log.problem_ids
    assert np.array_equal(back.correctness, bits) and np.array_equal(back.confidence, log.confidence)


def test_a_template_guess_that_raises_leaves_the_file_to_the_line_end_reader(tmp_path, monkeypatch):
    # the body '"b""",0\n,0\naa,0\n' splits into two rows of the first line's 8 bytes; the second row's guessed
    # id ",0\naa" holds a line break, so the guess holds three ids for two rows and raises, and the line-end
    # reader must still read the file
    monkeypatch.setattr(logs, "_read_csv", _no_csv)
    log = CorrectnessLog(problem_ids=['b"', "", "aa"], correctness=np.zeros((3, 1), dtype=bool))
    path = tmp_path / "log.csv"
    write_log(log, path, form="compact")
    data = path.read_bytes()
    with pytest.raises(ValueError, match="3 problem ids for 2 matrix rows"):
        logs._matrix_candidate(data, logs._head(data))
    assert read_log(path).problem_ids == log.problem_ids


def test_labels_quoted_where_write_log_would_not_read_through_csv(tmp_path):
    head = f"#{FORMAT_VERSION}\nproblem_id,iteration,correct,confidence,run_label\n"
    rows = [("p0", 0, 1), ("p0", 1, 0), ("p1", 0, 0), ("p1", 1, 1)]
    plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
    plain.write_text(head + "".join(f"{p},{k},{b},,run\n" for p, k, b in rows))
    quoted.write_text(head + "".join(f'{p},{k},{b},,"run"\n' for p, k, b in rows))
    want = read_runs(plain)["run"]
    with mock.patch.object(logs, "_read_csv", wraps=logs._read_csv) as spy:
        got = read_runs(quoted)
    assert spy.call_count == 1  # the canonical reader's label guard turned the file away
    assert list(got) == ["run"]
    assert got["run"].problem_ids == want.problem_ids
    assert np.array_equal(got["run"].correctness, want.correctness)
    assert got["run"].metadata == want.metadata and got["run"].confidence is want.confidence is None


def test_golden_logs_take_the_fast_path(monkeypatch):
    paths = sorted((Path(__file__).resolve().parent / "golden").rglob("log.csv"))
    assert len(paths) == 3
    expected = [_outcome(lambda: logs._read_csv(path.read_bytes())) for path in paths]
    monkeypatch.setattr(logs, "_read_csv", _no_csv)
    assert [_outcome(lambda: read_runs(path)) for path in paths] == expected


def _no_ragged(*args):
    raise AssertionError("a log of one-width ids took the varying-width writer")


def _no_line_ends(*args):
    raise AssertionError("a file of one template was read by its line ends")


_TEMPLATE_READ_SPIES = (("_read_csv", _no_csv), ("_canonical_candidate", _no_line_ends))
_MATRIX_PATH_SPIES = _TEMPLATE_READ_SPIES + (("_ragged_file", _no_ragged),)


@pytest.mark.parametrize("form", ["records", "compact"])
def test_simulated_logs_take_the_byte_matrix_paths(tmp_path, monkeypatch, form):
    log = simulate_population(SimConfig(n_problems=1001, n_iterations=11, initial_accuracy=0.6, seed=4,
                                        schedule=preset("o4-mini"))).log
    for name, spy in _MATRIX_PATH_SPIES:
        monkeypatch.setattr(logs, name, spy)
    path = tmp_path / "log.csv"
    write_log(log, path, form=form, run_label="sim")
    back = read_runs(path)["sim"]
    assert back.problem_ids == log.problem_ids
    assert np.array_equal(back.correctness, log.correctness)
    assert back.metadata == log.metadata


@pytest.mark.parametrize("form", ["records", "compact"])
@pytest.mark.parametrize("ids,label", [
    ([f"a,{i:03d}" for i in range(300)], "run"),  # each id quoted, so one width as written
    (_PADDED_IDS, 'a "fast", run'),  # a label to quote
    ([""], "run"),  # one empty id: rows of bits only
], ids=["quoted-ids", "quoted-label", "empty-id"])
def test_one_width_logs_are_read_as_rows_of_one_template(tmp_path, monkeypatch, form, ids, label):
    # a log of strs keeps no id grid, so _ragged_file writes it and checks the read; the template reads it
    for name, spy in _TEMPLATE_READ_SPIES:
        monkeypatch.setattr(logs, name, spy)
    # 12 columns: a record line's ",k," widens at k = 10
    log = CorrectnessLog(problem_ids=ids, correctness=np.arange(12 * len(ids)).reshape(-1, 12) % 7 < 3)
    path = tmp_path / "log.csv"
    write_log(log, path, form=form, run_label=label)
    assert path.read_bytes() == _csv_writer_bytes(log, form, label)
    back = read_runs(path)[label]
    assert back.problem_ids == log.problem_ids
    assert np.array_equal(back.correctness, log.correctness)


def _encoded(log, form, label):
    """``_encode``'s bytes, or the type and message of its refusal, and the writers it ran."""
    with mock.patch.object(logs, "_matrix_file", wraps=logs._matrix_file) as matrix_file, \
            mock.patch.object(logs, "_ragged_file", wraps=logs._ragged_file) as ragged_file:
        try:
            encoded = bytes(logs._encode(log, form, label))
        except ValueError as err:
            encoded = type(err), str(err)
    return encoded, [name for name, spy in (("_matrix_file", matrix_file), ("_ragged_file", ragged_file)) if spy.called]


def _grid_log(ids, **fields):
    """A log whose ids come as the byte grid the reader and ``simulate`` build."""
    grid = np.frombuffer("".join(ids).encode("ascii"), dtype=np.uint8).reshape(len(ids), -1)
    return CorrectnessLog(problem_ids=logs._IdGrid(grid), **fields)


# one-width ASCII: the bytes that break a line or make csv quote, NUL and DEL among plain ones
_GRID_ALPHABET = "ab0 #\x00\x7f" + ',"\r\x0b\x0c\x1c\x1d\x1e'


@pytest.mark.parametrize("form", ["records", "compact"])
@given(
    width=st.integers(0, 12),  # from the empty id to past 8 bytes, where a row's uniqueness key becomes a hash
    data=st.data(),
    label=st.sampled_from(["run", 'say "hi", run']),
)
@settings(max_examples=150, deadline=None)
def test_a_kept_grid_encodes_as_its_strs_do(form, width, data, label):
    # the two writers are each other's oracle: a kept grid takes _matrix_file unless a confidence is filled or
    # an id is quoted, the same ids as strs take _ragged_file, and both give the same bytes or the same refusal
    ids = data.draw(st.lists(st.text(_GRID_ALPHABET, min_size=width, max_size=width), min_size=1, max_size=6,
                             unique=True))
    matrix = data.draw(arrays(bool, (len(ids), data.draw(st.integers(1, 12)))))
    conf = None
    if form == "records":
        conf = data.draw(st.none() | arrays(float, matrix.shape, elements=_CONFIDENCES))
    grid_log = _grid_log(ids, correctness=matrix, confidence=conf)
    encoded, grid_writers = _encoded(grid_log, form, label)
    by_strs, str_writers = _encoded(CorrectnessLog(problem_ids=ids, correctness=matrix, confidence=conf), form, label)
    assert encoded == by_strs
    quoted = any("," in pid or '"' in pid for pid in ids)
    if not isinstance(encoded, bytes):  # an id that breaks a line: refused before either writer
        assert grid_writers == str_writers == []
        return
    plain = grid_log.confidence is None and not quoted
    assert grid_writers == ["_matrix_file" if plain else "_ragged_file"]
    assert str_writers == ["_ragged_file"]
    (back,) = logs._read_canonical(encoded).values()  # read back, the log keeps a grid unless an id was quoted
    assert back.problem_ids == tuple(ids)
    assert (back._id_grid is None) == quoted


@given(rows=st.lists(st.binary(min_size=1, max_size=3), min_size=1, max_size=8), width=st.integers(0, 12))
@settings(max_examples=200, deadline=None)
def test_distinct_rows_never_passes_a_repeat(rows, width):
    # rows of `width` bytes, drawn from few byte strings so that repeats are common
    grid = np.array([list((row * width)[:width]) for row in rows], dtype=np.uint8).reshape(len(rows), width)
    distinct = len({row.tobytes() for row in grid}) == len(grid)
    if width <= 8:  # the row is its own key
        assert logs._distinct_rows(grid) == distinct
    else:  # a repeated key may be a collision
        assert distinct or not logs._distinct_rows(grid)


@pytest.mark.parametrize("form", ["records", "compact"])
@pytest.mark.parametrize("ids", [["p0", "p1", "p2"], ["problem-000001", "problem-000002", "problem-000003"]],
                         ids=["up-to-8-bytes", "over-8-bytes"])
def test_repeated_one_width_ids_fall_to_csv_and_name_their_line(tmp_path, form, ids):
    # write_log's bytes with the second id made the first: no grid is kept, and the csv reader names the line
    data = logs._encode(CorrectnessLog(problem_ids=ids, correctness=np.eye(3, dtype=bool)), form, "run")
    path = tmp_path / "log.csv"
    path.write_bytes(bytes(data).replace(ids[1].encode() + b",", ids[0].encode() + b","))
    with mock.patch.object(logs, "_read_csv", wraps=logs._read_csv) as read_csv:
        with pytest.raises(LogFormatError) as err:
            read_runs(path)
    assert read_csv.call_count == 1
    if form == "records":  # p0's line for iteration 0, then p1's, made p0's
        assert (str(err.value), err.value.line) == (
            f"line 6: duplicate record for problem {ids[0]!r}, run 'run', iteration 0", 6)
    else:
        assert (str(err.value), err.value.line) == (f"line 5: duplicate row for problem {ids[0]!r}", 5)


@pytest.mark.parametrize("form", ["records", "compact"])
@pytest.mark.parametrize("byte", [",", '"', "\x1c", "\x0b"])
def test_one_width_ids_to_quote_or_that_break_a_line_keep_their_bytes_and_refusals(tmp_path, form, byte):
    ids = [f"a{byte}{i}" for i in range(3)]
    bits = np.eye(3, dtype=bool)
    log = CorrectnessLog(problem_ids=ids, correctness=bits)
    path = tmp_path / "log.csv"
    if byte in ',"':  # quoted as csv quotes them, and read back without a grid
        write_log(_grid_log(ids, correctness=bits), path, form=form, run_label="run")
        assert path.read_bytes() == _csv_writer_bytes(log, form, "run")
        back = read_log(path)
        assert list(back.problem_ids) == ids and back._id_grid is None
    else:
        with pytest.raises(ValueError, match="contains a line break"):
            write_log(_grid_log(ids, correctness=bits), path, form=form, run_label="run")
        assert not path.exists()
    # the same ids left unquoted and unrefused, as a hand edit would: read as csv reads them
    data = bytes(logs._encode(CorrectnessLog(problem_ids=[f"a_{i}" for i in range(3)], correctness=bits),
                              form, "run")).replace(b"a_", b"a" + byte.encode())
    path.write_bytes(data)
    assert _outcome(lambda: read_runs(path)) == _outcome(lambda: logs._read_csv(data))


@pytest.mark.parametrize("form", ["records", "compact"])
@pytest.mark.parametrize("ids,kept", [
    (None, True),  # simulate's
    ([f"problem-{i:06d}" for i in range(50)], True),
    ([f"p,{i:02d}" for i in range(50)], False),  # quoted
    ([f"\u00e9{i:02d}" for i in range(50)], False),  # non-ASCII
    ([f"p{i}" for i in range(50)], False),  # varying width
], ids=["simulated", "ascii-over-8-bytes", "quoted", "non-ascii", "varying-width"])
def test_which_read_logs_keep_their_id_grid(tmp_path, monkeypatch, form, ids, kept):
    monkeypatch.setattr(logs, "_read_csv", _no_csv)
    bits = np.arange(250).reshape(50, 5) % 3 == 0
    if ids is None:
        log = simulate_population(SimConfig(n_problems=50, n_iterations=4, initial_accuracy=0.5, seed=2,
                                            schedule=preset("o4-mini"))).log
    else:
        log = CorrectnessLog(problem_ids=ids, correctness=bits)
    path = tmp_path / "log.csv"
    write_log(log, path, form=form, run_label="run")
    back = read_log(path)
    assert back.problem_ids == log.problem_ids
    assert (back._id_grid is not None) == kept
    if kept:
        assert not back._id_grid.flags.writeable
        assert bytes(logs._encode(back, form, "run")) == path.read_bytes()


def test_simulated_record_read_peaks_no_higher_than_before_the_grid_was_kept(tmp_path):
    # 50,000 x 7 from simulate: before logs kept their ids' grid this read peaked at 16.36 MiB
    # (17,153,648 B, over 3 times the 5.6 MB file); the uniqueness keys and the grid come
    # after the read's per-line arrays are dropped, so they must not raise that peak
    log = simulate_population(SimConfig(n_problems=50_000, n_iterations=6, initial_accuracy=0.5, seed=1,
                                        schedule=preset("o4-mini"))).log
    path = tmp_path / "log.csv"
    write_log(log, path, form="records")
    tracemalloc.start()
    try:
        back = read_log(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back._id_grid is not None and back.problem_ids == log.problem_ids
    assert peak < 16.5 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("form,mib", [("records", 14.5), ("compact", 5.75)])
def test_simulated_reads_peak_below_their_pinned_bounds_and_keep_no_view_of_the_file(tmp_path, form, mib):
    # 50,000 x 7 from simulate, read as rows of one template: 14.31 MiB (records, 5.6 MB file) and 5.63 MiB
    # (compact, 1.1 MB). Found by a scan for line ends, with per-line arrays, they peaked at 16.36 and 5.89 MiB
    log = simulate_population(SimConfig(n_problems=50_000, n_iterations=6, initial_accuracy=0.5, seed=1,
                                        schedule=preset("o4-mini"))).log
    path = tmp_path / "log.csv"
    write_log(log, path, form=form)
    tracemalloc.start()
    try:
        back = read_log(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.problem_ids == log.problem_ids
    assert peak < mib * 2**20, f"peak {peak / 2**20:.2f} MiB"
    # the matrix and the kept grid are copies: a view would keep the whole file's bytes alive
    data = path.read_bytes()
    (back,) = logs._read_canonical(data).values()
    assert back._id_grid is not None
    for array in (back.correctness, back._id_grid):
        assert not np.shares_memory(array, np.frombuffer(data, dtype=np.uint8))


# ids of varying width: quoted like the paired bench logs' ("<word>,<n>", 9-21 bytes on disk), and
# 1-20 symbols wide, some non-ASCII, some all commas
_WORDS = ("algebra", "geometry", "counting", "number theory", "probability", "calculus", "logic", "word problem")
_BENCH_SHAPED_IDS = [f"{_WORDS[i * 7919 % 8]},{i}" for i in range(20_000)]
_RAGGED_IDS = ["\u00e9\u2603,abcdefgh0123456789xyz"[i // 20] * (1 + i % 20) for i in range(480)]


@pytest.mark.parametrize(
    "form,ids",
    [pytest.param("compact", _BENCH_SHAPED_IDS, id="compact-bench-shaped"),
     pytest.param("records", _RAGGED_IDS, id="records-1-to-20-wide"),
     # lines of 12 and 24 bytes: whole rows of the first line's length, turned away by their line ends
     pytest.param("compact", ["a", "b" * 13], id="compact-whole-rows-of-the-first-line")],
)
def test_varying_width_logs_take_the_byte_array_paths(tmp_path, monkeypatch, form, ids):
    monkeypatch.setattr(logs, "_read_csv", _no_csv)
    log = CorrectnessLog(problem_ids=ids, correctness=np.arange(5 * len(ids)).reshape(-1, 5) % 7 < 3,
                         metadata={"seed": "5"})
    path = tmp_path / "log.csv"
    with mock.patch.object(logs, "_ragged_file", wraps=logs._ragged_file) as ragged:
        write_log(log, path, form=form, run_label="bench")
        back = _read_by_line_ends(path)["bench"]
    assert ragged.call_count == 2  # the write, and the check of the read
    assert path.read_bytes() == _csv_writer_bytes(log, form, "bench")
    assert list(back.problem_ids) == ids
    assert np.array_equal(back.correctness, log.correctness)
    assert back.metadata == {"seed": "5"}


@pytest.mark.parametrize(
    "form,filled,write_mib,read_mib",
    [pytest.param("records", False, 8, 12, id="records-8-12"), pytest.param("compact", False, 4, 6, id="compact-4-6"),
     pytest.param("records", True, 8, 13, id="records-filled-8-13")],
)
def test_varying_width_memory_stays_bounded(tmp_path, form, filled, write_mib, read_mib):
    # 20,000 x 5 with the bench-shaped ids: no string per row, no slice per id; a list of rows
    # and a slice per id peaked at 10.4 and 14.4 MiB (records), 4.4 and 6.4 MiB (compact). With a
    # third of the cells filled from 10 values, a string per row peaked at 11.3 and 16.3 MiB
    cells = np.arange(100_000).reshape(-1, 5)
    conf = np.where(cells % 3 == 1, cells % 10 / 10 + 0.05, np.nan) if filled else None
    log = CorrectnessLog(problem_ids=_BENCH_SHAPED_IDS, correctness=cells % 3 == 0, confidence=conf)
    path = tmp_path / "log.csv"
    peaks = []
    for step in (lambda: write_log(log, path, form=form, run_label="run"), lambda: read_runs(path)):
        tracemalloc.start()
        try:
            back = step()
            peaks.append(tracemalloc.get_traced_memory()[1] / 2**20)
        finally:
            tracemalloc.stop()
    assert back["run"].problem_ids == log.problem_ids
    assert peaks[0] < write_mib and peaks[1] < read_mib, f"write {peaks[0]:.1f} MiB, read {peaks[1]:.1f} MiB"


# every id holds '"', some also ",", in widths of 1 to 14 bytes, non-ASCII among them
_QUOTE_IDS = ['"', '""', '","', "é\"☃,"] + [f'say "{i}"' + "," * (i % 3) for i in range(4, 50_000)]


@pytest.mark.parametrize("form", ["records", "compact"])
def test_ids_that_hold_a_quote_are_quoted_over_the_ids_as_a_whole(tmp_path, monkeypatch, form):
    monkeypatch.setattr(logs, "_read_csv", _no_csv)
    calls = []
    for n in (10, 1000):
        ids = _QUOTE_IDS[:n]
        log = CorrectnessLog(problem_ids=ids, correctness=np.arange(3 * n).reshape(n, 3) % 5 < 2)
        with mock.patch.object(logs, "_quote", wraps=logs._quote) as quote:
            encoded = logs._encode(log, form, "run")
        calls.append(quote.call_count)
        assert encoded == _csv_writer_bytes(log, form, "run")
        path = tmp_path / "log.csv"
        path.write_bytes(encoded)
        back = read_log(path)
        assert back.problem_ids == log.problem_ids and np.array_equal(back.correctness, log.correctness)
    assert calls[0] == calls[1]  # no call per id: the label's, and no other


def test_quote_ids_encode_in_little_memory():
    # quoted one id at a time, these 50,000 ids peaked at 11.1 MiB; doubled in one pass, at 6.7 MiB
    log = CorrectnessLog(problem_ids=_QUOTE_IDS, correctness=np.arange(350_000).reshape(50_000, 7) % 3 == 0)
    tracemalloc.start()
    try:
        logs._encode(log, "compact", "run")
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert peak < 8.5, f"peak {peak:.1f} MiB"


def test_one_width_write_memory_stays_near_the_file_size(tmp_path):
    # no list of rows, no joined string, no copy to bytes. As strs the ids take _ragged_file (9.9 MiB for a
    # 5.3 MiB file); kept as a grid they take _matrix_file, whose byte matrix is the file (5.9 MiB)
    ids, bits = [f"p{i:05d}" for i in range(50_000)], np.arange(350_000).reshape(50_000, 7) % 3 == 0
    path = tmp_path / "log.csv"
    for log in (CorrectnessLog(problem_ids=ids, correctness=bits), _grid_log(ids, correctness=bits)):
        tracemalloc.start()
        try:
            write_log(log, path, form="records")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert peak < 2 * size, f"peak {peak / 2**20:.1f} MiB for a {size / 2**20:.1f} MiB file"


# -- row alignment ---------------------------------------------------------------------


def test_align_rows_identical_and_permuted_order():
    log = _toy_log()
    assert np.array_equal(align_rows(log, log), log.correctness)
    order = [2, 0, 3, 1]
    permuted = CorrectnessLog(
        problem_ids=[log.problem_ids[i] for i in order], correctness=log.correctness[order]
    )
    assert np.array_equal(align_rows(log, permuted), log.correctness)
    assert np.array_equal(align_rows(permuted, log), permuted.correctness)


@pytest.mark.parametrize("ids", [["a", "b", "c"], ["a", "b", "c", "d", "e"], ["a", "b", "c", "e"]])
def test_align_rows_requires_same_problems(ids):
    other = CorrectnessLog(problem_ids=ids, correctness=np.ones((len(ids), 3), dtype=bool))
    for first, second in ((_toy_log(), other), (other, _toy_log())):
        with pytest.raises(ValueError, match="different problem sets"):
            align_rows(first, second)


_ALIGN_ALPHABET = "ab0,\" "


def _bit_rows(n):
    """n distinct rows, so a row out of place shows."""
    return (np.arange(n)[:, None] >> np.arange(9) & 1).astype(bool)


def _aligned_or_refused(log_a, log_b):
    try:
        return align_rows(log_a, log_b).tolist()
    except ValueError as err:
        return str(err)


@given(data=st.data(), width=st.sampled_from([0, 1, 3, 8, 9, 12]))
@settings(max_examples=300, deadline=None)
def test_grid_pairing_matches_the_dict(data, width):
    # the dict of list logs is the oracle: two logs' grids give the same rows or the same refusal
    text = st.text(_ALIGN_ALPHABET, min_size=width, max_size=width)
    ids_a = data.draw(st.lists(text, min_size=1 if width == 0 else 3, max_size=8, unique=True))
    wider = st.text(_ALIGN_ALPHABET, min_size=width + 1, max_size=width + 1)
    extra = data.draw(st.lists(text | wider, max_size=3))
    pool = list(dict.fromkeys(ids_a + extra))
    permuted = data.draw(st.permutations(ids_a))
    fresh = [pid for pid in extra if pid not in ids_a]
    ids_b = data.draw(st.sampled_from([
        ids_a,  # the same order
        permuted if permuted != ids_a else ids_a[1:] + ids_a[:1],  # another order
        permuted[:-1] + fresh[:1] or ids_a,  # one id swapped for another, of the same width or not
        data.draw(st.permutations(pool))[: data.draw(st.integers(1, len(pool)))],  # a subset or a superset
    ]))
    listed = [CorrectnessLog(problem_ids=ids, correctness=_bit_rows(len(ids))) for ids in (ids_a, ids_b)]
    one_width = [len(set(map(len, ids))) == 1 for ids in (ids_a, ids_b)]
    # a grid for each log of one width, or for one of them: one grid log paired with one list log
    as_grid = data.draw(st.sampled_from([(True, True), (True, False), (False, True)]))
    kept = [_grid_log(ids, correctness=log.correctness) if grid and width_ok else log
            for ids, log, grid, width_ok in zip((ids_a, ids_b), listed, as_grid, one_width)]
    assert _aligned_or_refused(*kept) == _aligned_or_refused(*listed)


def test_grid_pairing_in_one_order_builds_no_ids():
    ids = [f"p{i:02d}" for i in range(40)]
    a = _grid_log(ids, correctness=_bit_rows(40))
    with mock.patch.object(logs._IdGrid, "__iter__", autospec=True, side_effect=logs._IdGrid.__iter__) as split:
        same = _grid_log(ids, correctness=~a.correctness)
        assert align_rows(a, same) is same.correctness  # the same order, found by one comparison: no gather
        with pytest.raises(ValueError, match="different problem sets"):
            align_rows(a, _grid_log(ids[1:], correctness=_bit_rows(39)))
        assert split.call_count == 0
        assert a.problem_ids == tuple(ids)  # the spy sees a split
        assert split.call_count == 1


# -- ids built on first read -----------------------------------------------------------


def _simulated(n=12):
    return simulate_population(SimConfig(n_problems=n, n_iterations=2, initial_accuracy=0.5, seed=3,
                                         schedule=preset("o4-mini"))).log


def test_kept_grid_ids_are_one_plain_tuple_built_on_first_read(tmp_path):
    write_log(_simulated(), tmp_path / "log.csv")
    for log in (_simulated(), read_log(tmp_path / "log.csv")):
        assert "problem_ids" not in vars(log)
        ids = log.problem_ids
        assert type(ids) is tuple and ids == tuple(f"p{i:02d}" for i in range(12))
        assert log.problem_ids is ids and vars(log)["problem_ids"] is ids
    with pytest.raises(AttributeError, match="no attribute 'missing'"):
        _simulated().missing


@pytest.mark.parametrize("read_first", [False, True])
def test_kept_grid_ids_survive_repr_replace_copy_and_pickle(read_first):
    log = _simulated()
    want = tuple(f"p{i:02d}" for i in range(12))
    if read_first:
        assert log.problem_ids == want
    assert repr(want) in repr(log)
    replaced = dataclasses.replace(log, metadata={"x": "1"})  # reads the ids: the new log holds their tuple
    assert replaced.problem_ids == want and replaced._id_grid is None and replaced.metadata == {"x": "1"}
    for other in (copy.copy(log), copy.deepcopy(log), pickle.loads(pickle.dumps(log))):
        assert np.array_equal(other._id_grid, log._id_grid)  # the grid goes along, and the ids come from it
        assert other.problem_ids == want and type(other.problem_ids) is tuple
        assert np.array_equal(other.correctness, log.correctness) and other.metadata == log.metadata


# -- the byte-matrix writer ------------------------------------------------------------


@pytest.mark.parametrize("form", ["records", "compact"])
@pytest.mark.parametrize("columns", [1, 2, 10, 11, 12, 101])  # the lines of k widen at k = 10 and k = 100
@pytest.mark.parametrize("ids", [[""], ["ab", "cd", "ef"], ["problem-000001", "problem-000002"]],
                         ids=["width-0", "width-2", "width-14"])
def test_matrix_file_writes_the_bytes_of_the_ragged_file(form, columns, ids):
    matrix = np.arange(len(ids) * columns).reshape(len(ids), columns) % 3 == 1
    for label in ("run", 'say "hi", run'):
        head = b"#head\n"
        grid = np.frombuffer("".join(ids).encode("ascii"), dtype=np.uint8).reshape(len(ids), -1)
        by_grid = logs._matrix_file(head, grid, matrix, form, logs._quote(label))
        assert by_grid == logs._ragged_file(head, ids, matrix, form, logs._quote(label))
