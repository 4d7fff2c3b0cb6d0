"""Correctness-log format: round trips and line-numbered failures."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from refineloop.logs import (
    FORMAT_VERSION,
    CorrectnessLog,
    LogFormatError,
    align_rows,
    read_log,
    read_runs,
    write_log,
)


_FIELD_LIMIT = csv.field_size_limit()


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
    assert log.problem_ids == ["p"]


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
        (f"#{FORMAT_VERSION}\nproblem_id,iteration,correct\np,0,1\np,0,1\n", 4, "duplicate record"),
        (f"#{FORMAT_VERSION}\nproblem_id,it0,it1\np,1\n", 3, "expected 3 fields"),
        (f"#{FORMAT_VERSION}\nproblem_id,it0\n", None, "no records"),
        (f"#{FORMAT_VERSION}\nproblem_id,it0,it1\np0,1,0\np1,0,1\np0,1,1\n", 5, "duplicate row for problem 'p0'"),
        pytest.param(
            f"#{FORMAT_VERSION}\nproblem_id,it0\n{'x' * (_FIELD_LIMIT + 1)},1\n", 3, "field limit", id="over-field-limit"
        ),
        # blank and whitespace-only lines are skipped but still counted
        (f"#{FORMAT_VERSION}\n\n  \nproblem_id,iteration,correct\np,0,1\n\t\n\np,1,1\nq,0,x\n", 9, "correct must be"),
    ],
)
def test_parse_errors_carry_line_numbers(tmp_path, content, expect_line, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(content)
    with pytest.raises(LogFormatError) as err:
        read_runs(path)
    assert fragment in str(err.value)
    assert err.value.line == expect_line


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


def test_log_validation():
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


def test_accessors():
    log = _toy_log()
    assert log.n_problems == 4
    assert log.n_iterations == 2
    assert log.accuracy(0) == 0.5
    assert log.accuracy(2) == 0.25


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
    + [({}, f"a{br}b") for br in _LINE_BREAKS],
)
def test_write_refuses_unreadable_text(tmp_path, form, metadata, run_label):
    log = CorrectnessLog(problem_ids=["a"], correctness=np.array([[1, 0]]), metadata=metadata)
    path = tmp_path / "log.csv"
    with pytest.raises(ValueError):
        write_log(log, path, form=form, run_label=run_label)
    assert not path.exists()


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
    assert read_runs(path)["y" * _FIELD_LIMIT].problem_ids == ids


@pytest.mark.parametrize("form", ["records", "compact"])
@given(
    ids=st.lists(st.text(max_size=6), min_size=1, max_size=4, unique=True),
    width=st.integers(1, 3),
    bits=st.data(),
    metadata=st.dictionaries(st.text(max_size=6), st.text(max_size=6), max_size=3),
    run_label=st.one_of(st.none(), st.text(max_size=6)),
)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_accepted_logs_read_back_equal(tmp_path, form, ids, width, bits, metadata, run_label):
    matrix = bits.draw(arrays(bool, (len(ids), width)))
    log = CorrectnessLog(problem_ids=ids, correctness=matrix, metadata=metadata)
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
    assert back.problem_ids == ids
    assert np.array_equal(back.correctness, matrix)
    assert back.metadata == {k: v for k, v in metadata.items() if k != "run_label"}


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
