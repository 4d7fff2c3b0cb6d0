"""Paired tests: frozen reference rows, tail-function oracles, bootstrap."""

import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refineloop import rng, stats
from refineloop.stats import (
    chi_square_survival,
    mcnemar,
    mcnemar_from_logs,
    paired_bootstrap_delta,
)

scipy_stats = pytest.importorskip("scipy.stats")


# -- McNemar -------------------------------------------------------------------

# (b, c) -> (statistic, p) computed from the uncorrected definition with an
# independent chi-square tail (scipy) and frozen here
_FROZEN_ROWS = [
    (6, 0, 6.0, 0.014305878435429631),
    (4, 2, 0.6666666666666666, 0.41421617824252515),
    (17, 2, 11.842105263157896, 0.0005790632172192773),
    (9, 1, 6.4, 0.011412036386001708),
]


@pytest.mark.parametrize("b,c,stat,p", _FROZEN_ROWS)
def test_mcnemar_frozen_rows(b, c, stat, p):
    result = mcnemar(b, c)
    assert result.statistic == pytest.approx(stat, rel=1e-12)
    assert result.p_value == pytest.approx(p, rel=1e-9)
    assert result.significant == (p < 0.05)


def test_mcnemar_printed_precision():
    assert round(mcnemar(6, 0).statistic, 2) == 6.0
    assert round(mcnemar(6, 0).p_value, 3) == 0.014
    assert round(mcnemar(17, 2).statistic, 2) == 11.84
    assert mcnemar(17, 2).p_value < 0.001
    assert round(mcnemar(9, 1).p_value, 3) == 0.011


def test_mcnemar_no_discordance_flag():
    result = mcnemar(0, 0)
    assert result.no_discordance
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert not result.significant
    assert not mcnemar(3, 3).no_discordance


def test_mcnemar_equal_counts_p_one():
    result = mcnemar(5, 5)
    assert result.statistic == 0.0
    assert result.p_value == 1.0


@given(b=st.integers(0, 60), c=st.integers(0, 60))
def test_mcnemar_symmetry(b, c):
    x, y = mcnemar(b, c), mcnemar(c, b)
    assert x.statistic == y.statistic
    assert x.p_value == y.p_value


def test_mcnemar_p_monotone_in_imbalance():
    total = 20
    previous = None
    for b in range(total // 2, total + 1):
        p = mcnemar(b, total - b).p_value
        if previous is not None:
            assert p <= previous
        previous = p


def test_mcnemar_validation():
    with pytest.raises(ValueError):
        mcnemar(-1, 0)
    with pytest.raises(ValueError):
        mcnemar(1.0, 0)


def test_mcnemar_from_logs_counts():
    a = np.array([1, 1, 1, 0, 0, 1], dtype=bool)
    b = np.array([0, 1, 0, 1, 0, 1], dtype=bool)
    result = mcnemar_from_logs(a, b)
    assert (result.b, result.c) == (2, 1)
    with pytest.raises(ValueError):
        mcnemar_from_logs(a, b[:-1])
    with pytest.raises(ValueError):
        mcnemar_from_logs(np.array([], dtype=bool), np.array([], dtype=bool))
    with pytest.raises(ValueError, match="columns must be 1-d"):
        mcnemar_from_logs(a[:, None], b[:, None])


# -- chi-square tail -----------------------------------------------------------


def test_chi_square_quantile_self_check():
    assert chi_square_survival(3.841) == pytest.approx(0.05, abs=1e-4)


def test_chi_square_against_erfc_oracle():
    # for one degree of freedom the survival function is erfc(sqrt(x/2))
    for x in np.concatenate([np.linspace(0.0, 5.0, 41), np.linspace(5.0, 60.0, 23), [math.inf]]):
        want = math.erfc(math.sqrt(x / 2.0))
        got = chi_square_survival(float(x))
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("df", [1])  # McNemar's tail is the only one computed
def test_chi_square_against_scipy(df):
    for x in (0.01, 0.5, 1.0, 3.841, 6.0, 11.84, 25.6, 80.0):
        assert chi_square_survival(x) == pytest.approx(
            float(scipy_stats.chi2.sf(x, df)), rel=1e-10
        )


def test_chi_square_is_one_where_the_halved_statistic_is_zero():
    # the smallest subnormal halves to 0.0 and must take the zero branch, never log(0.0);
    # the next one halves to 5e-324 and goes through the series
    assert chi_square_survival(0.0) == 1.0
    assert chi_square_survival(5e-324) == 1.0
    assert chi_square_survival(1e-323) == 1.0


@given(st.floats(0.0, 200.0, allow_nan=False))
def test_chi_square_monotone_decreasing(x):
    assert chi_square_survival(x) >= chi_square_survival(x + 0.5)


def test_chi_square_validation():
    with pytest.raises(ValueError):
        chi_square_survival(-0.1)
    for bad in ("1", None, math.nan, True, np.bool_(False), np.float32(-1.0)):
        with pytest.raises(ValueError, match=re.escape(f"statistic must be a number in [0, inf], got {bad!r}")):
            chi_square_survival(bad)
    for x in (np.float32(2.5), np.int64(4), 3):
        assert chi_square_survival(x) == chi_square_survival(float(x))


# -- paired bootstrap ----------------------------------------------------------


def _oracle_bootstrap(a, b, resamples, seed, confidence):
    """Naive per-resample loop over the same counter streams."""
    n = len(a)
    diff = b.astype(np.int8) - a.astype(np.int8)
    deltas = np.empty(resamples)
    for r in range(resamples):
        u = rng.uniforms(seed, rng.BOOTSTRAP_STREAM_BASE + r, np.arange(n))
        idx = np.minimum((u * n).astype(np.int64), n - 1)
        deltas[r] = diff[idx].mean() * 100.0
    tail = (1.0 - confidence) / 2.0
    lo, hi = np.percentile(deltas, [100.0 * tail, 100.0 * (1.0 - tail)])
    return float(lo), float(hi)


def test_bootstrap_matches_naive_loop():
    # n * resamples crosses the implementation's chunk size, so this also
    # proves chunk boundaries do not leak into the result
    gen = np.random.default_rng(77)
    a = gen.random(600) < 0.8
    b = gen.random(600) < 0.85
    result = paired_bootstrap_delta(a, b, resamples=4000, seed=31)
    lo, hi = _oracle_bootstrap(a, b, 4000, 31, 0.95)
    assert result.ci_lo == lo
    assert result.ci_hi == hi
    assert result.delta_pp == pytest.approx((b.mean() - a.mean()) * 100.0, abs=1e-12)


@pytest.mark.parametrize(
    "n, resamples",
    [
        (70_000, 6),  # n exceeds one block: one resample per block
        (500, 50),  # all resamples fit in one block
        (600, 250),  # 109 resamples per block: the last block is partial
    ],
)
@pytest.mark.parametrize("confidence", [0.95, 0.5, 0.2])
def test_bootstrap_blocks_match_naive_loop(n, resamples, confidence):
    # the confidences move the percentiles across the order statistics,
    # so more of the resampled deltas are compared than the 95% tails
    gen = np.random.default_rng(n)
    a = gen.random(n) < 0.7
    b = gen.random(n) < 0.75
    result = paired_bootstrap_delta(a, b, resamples=resamples, seed=5, confidence=confidence)
    assert (result.ci_lo, result.ci_hi) == _oracle_bootstrap(a, b, resamples, 5, confidence)


def _constant_difference(kind, n):
    """Paired columns whose per-problem differences all take one value."""
    if kind == "identical":
        a = np.random.default_rng(n).random(n) < 0.7
        return a, a.copy()
    ones, zeros = np.ones(n, dtype=bool), np.zeros(n, dtype=bool)
    return (zeros, ones) if kind == "all-better" else (ones, zeros)


@pytest.mark.parametrize("n, resamples", [(1, 50), (600, 250), (70_000, 6)])
@pytest.mark.parametrize("confidence", [0.95, 0.2])
@pytest.mark.parametrize("kind", ["identical", "all-better", "all-worse"])
def test_bootstrap_constant_difference_matches_naive_loop(kind, n, resamples, confidence):
    # the kernel makes no draw here; the oracle draws every index, so equal
    # bits show that skipping the draws gives what drawing them gives
    a, b = _constant_difference(kind, n)
    result = paired_bootstrap_delta(a, b, resamples=resamples, seed=5, confidence=confidence)
    assert (result.ci_lo, result.ci_hi) == _oracle_bootstrap(a, b, resamples, 5, confidence)
    assert result.delta_pp == {"identical": 0.0, "all-better": 100.0, "all-worse": -100.0}[kind]


def test_bootstrap_memory_stays_cache_sized():
    gen = np.random.default_rng(8)
    a = gen.random(20_000) < 0.8
    b = gen.random(20_000) < 0.82
    tracemalloc.start()
    try:
        paired_bootstrap_delta(a, b, resamples=2_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_bootstrap_memory_stays_cache_sized_past_one_tile_of_columns():
    # one whole resample of 300,000 draws would need four 2.4 MB temporaries,
    # and draw positions built for each of 1,000,000 problems, 8 B each, 8 MB
    for n in (300_000, 1_000_000):
        gen = np.random.default_rng(n)
        a = gen.random(n) < 0.8
        b = gen.random(n) < 0.82
        tracemalloc.start()
        try:
            paired_bootstrap_delta(a, b, resamples=2, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, n


def _force_workers(monkeypatch, workers):
    """Make the kernel use ``workers`` threads, whatever this host's cores."""
    monkeypatch.setattr(stats.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(stats, "_MAX_WORKERS", workers)


@pytest.mark.parametrize("n, resamples", [(70_000, 6), (500, 50), (600, 250)])
@pytest.mark.parametrize("confidence", [0.95, 0.2])
@pytest.mark.parametrize("workers", [1, 3])
def test_bootstrap_bits_do_not_depend_on_worker_count(monkeypatch, workers, n, resamples, confidence):
    # more workers than this host may have cores, and a short switch
    # interval, so helpers interleave with the caller as often as they can
    gen = np.random.default_rng(n)
    a = gen.random(n) < 0.7
    b = gen.random(n) < 0.75
    expected = _oracle_bootstrap(a, b, resamples, 5, confidence)
    _force_workers(monkeypatch, workers)
    fill = rng._fill
    callers = set()

    def recording(key, gamma, index, out, tmp):
        callers.add(threading.get_ident())
        fill(key, gamma, index, out, tmp)

    monkeypatch.setattr("refineloop.rng._fill", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = paired_bootstrap_delta(a, b, resamples=resamples, seed=5, confidence=confidence)
    finally:
        sys.setswitchinterval(interval)
    assert (result.ci_lo, result.ci_hi) == expected
    assert 1 <= len(callers) <= workers
    if workers == 1:  # one worker runs every tile inline, on the calling thread
        assert callers == {threading.get_ident()}


def test_bootstrap_helper_exception_reaches_the_caller(monkeypatch):
    _force_workers(monkeypatch, 3)
    fill = rng._fill
    caller = threading.get_ident()
    helper_drew = threading.Event()

    def failing(key, gamma, index, out, tmp):
        if threading.get_ident() == caller:
            helper_drew.wait(timeout=10)  # hold the caller's first tile until a helper fails
            return fill(key, gamma, index, out, tmp)
        helper_drew.set()
        raise RuntimeError("draw failed in a helper")

    monkeypatch.setattr("refineloop.rng._fill", failing)
    threads = threading.active_count()
    col = np.arange(500) % 3 == 0
    with pytest.raises(RuntimeError, match="draw failed in a helper"):
        paired_bootstrap_delta(col, ~col, resamples=1_000, seed=1)
    assert helper_drew.is_set()
    assert threading.active_count() == threads


def test_bootstrap_workers_reuse_their_scratch(monkeypatch):
    # every buffer the kernel is handed stays referenced here, so a tile that
    # allocated its own would show as a new address, never a recycled one
    n, resamples = 70_000, 6  # one resample per tile, two column chunks each
    _force_workers(monkeypatch, 3)
    fill = rng._fill
    handed = {}

    def recording(key, gamma, index, out, tmp):
        handed.setdefault(threading.get_ident(), []).append((out, tmp))
        fill(key, gamma, index, out, tmp)

    gen = np.random.default_rng(n)
    a = gen.random(n) < 0.7
    b = gen.random(n) < 0.75
    expected = paired_bootstrap_delta(a, b, resamples=resamples, seed=5)
    monkeypatch.setattr("refineloop.rng._fill", recording)
    assert paired_bootstrap_delta(a, b, resamples=resamples, seed=5) == expected
    assert sum(len(buffers) for buffers in handed.values()) == 2 * resamples
    for buffers in handed.values():
        addresses = {(out.__array_interface__["data"][0], tmp.__array_interface__["data"][0]) for out, tmp in buffers}
        assert len(addresses) == 1


def test_the_top_draw_lands_on_the_last_index():
    # the largest draw m = 2**53 - 1 scaled by n floors to n - 1 whichever
    # way it is rounded, so the kernel's mode="clip" never moves an index
    powers = 2 ** np.arange(41, dtype=np.int64)
    n = np.unique(np.concatenate([np.arange(1, 5_001), powers - 1, powers, powers + 1]))
    n = n[n >= 1]
    m = float(2**53 - 1)
    assert np.array_equal(((m * 2.0**-53) * n).astype(np.int64), n - 1)
    assert np.array_equal((m * (n * 2.0**-53)).astype(np.int64), n - 1)


def test_bootstrap_draws_every_index_through_rng_fill(monkeypatch):
    # the generator is written once, in rng._fill: a kernel that generated
    # its draws any other way could drift from rng.uniforms' bits. The
    # benchmark counts these draws in stats.paired_bootstrap_delta.index_draws
    # and times them inside its span.
    n, resamples = 3_000, 70
    drawn = []
    coordinates = set()
    fill = rng._fill
    streams = [rng.BOOTSTRAP_STREAM_BASE + r for r in range(resamples)]
    stream_of = dict(zip(zip(*(part.tolist() for part in rng._stream_keys(2, streams))), streams))

    def counting(key, gamma, index, out, tmp):
        fill(key, gamma, index, out, tmp)
        drawn.append(out.size)
        st = [stream_of[pair] for pair in zip(key.ravel().tolist(), gamma.ravel().tolist())]
        st, ix = np.broadcast_arrays(np.array(st)[:, None], np.asarray(index))
        coordinates.update(zip(st.ravel().tolist(), ix.ravel().tolist()))

    gen = np.random.default_rng(4)
    a = gen.random(n) < 0.6
    b = gen.random(n) < 0.65
    expected = paired_bootstrap_delta(a, b, resamples=resamples, seed=2)
    monkeypatch.setattr("refineloop.rng._fill", counting)
    assert paired_bootstrap_delta(a, b, resamples=resamples, seed=2) == expected
    assert sum(drawn) == resamples * n
    assert coordinates == {
        (rng.BOOTSTRAP_STREAM_BASE + r, i) for r in range(resamples) for i in range(n)
    }


@pytest.mark.parametrize(
    "n, resamples",
    [
        (600, 250),  # 109 resamples per tile, one column chunk each
        (70_000, 3),  # one resample per tile, two column chunks each
    ],
)
def test_bootstrap_derives_stream_keys_once_per_call(monkeypatch, n, resamples):
    # a tile or column chunk that derived its own keys would show up here
    # as a second call
    derived = []
    stream_keys = rng._stream_keys

    def spying(seed, stream):
        derived.append(np.asarray(stream).ravel().tolist())
        return stream_keys(seed, stream)

    gen = np.random.default_rng(n)
    a = gen.random(n) < 0.7
    b = gen.random(n) < 0.75
    expected = paired_bootstrap_delta(a, b, resamples=resamples, seed=5)
    monkeypatch.setattr("refineloop.rng._stream_keys", spying)
    assert paired_bootstrap_delta(a, b, resamples=resamples, seed=5) == expected
    assert derived == [[rng.BOOTSTRAP_STREAM_BASE + r for r in range(resamples)]]


def _spy_on_draws(monkeypatch):
    """Record every ``rng._fill`` draw count, and every key derivation and tile run."""
    drawn, calls = [], []
    fill, stream_keys, run_tiles = rng._fill, rng._stream_keys, stats._run_tiles

    def counting(key, gamma, index, out, tmp):
        fill(key, gamma, index, out, tmp)
        drawn.append(out.size)

    def deriving(seed, stream):
        calls.append(("keys", np.asarray(stream).size))
        return stream_keys(seed, stream)

    def tiling(new_tile, starts):
        calls.append(("tiles", len(starts)))  # the only place helper threads start
        return run_tiles(new_tile, starts)

    monkeypatch.setattr("refineloop.rng._fill", counting)
    monkeypatch.setattr("refineloop.rng._stream_keys", deriving)
    monkeypatch.setattr(stats, "_run_tiles", tiling)
    return drawn, calls


@pytest.mark.parametrize("kind", ["identical", "all-better", "all-worse"])
def test_bootstrap_draws_nothing_when_every_difference_is_equal(monkeypatch, kind):
    n, resamples = 600, 250
    a, b = _constant_difference(kind, n)
    drawn, calls = _spy_on_draws(monkeypatch)
    threads = threading.active_count()
    result = paired_bootstrap_delta(a, b, resamples=resamples, seed=5)
    assert (drawn, calls) == ([], [])
    assert threading.active_count() == threads
    assert result.ci_lo == result.ci_hi == result.delta_pp
    # one discordant problem is enough to draw every index again
    b = a.copy()
    b[n // 2] = not b[n // 2]
    paired_bootstrap_delta(a, b, resamples=resamples, seed=5)
    assert sum(drawn) == resamples * n
    assert calls == [("keys", resamples), ("tiles", 3)]  # 109 resamples per tile


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"seed": -2}, "seed"),
        ({"resamples": 0}, "resamples"),
        ({"confidence": 1.0}, "confidence"),
        ({"confidence": math.nan}, "confidence"),
    ],
)
def test_bootstrap_refuses_bad_arguments_on_equal_differences_too(monkeypatch, bad, message):
    col = np.arange(40) % 3 == 0
    with pytest.raises(ValueError, match=message) as drawing:
        paired_bootstrap_delta(col, ~col, **{"resamples": 10, **bad})
    drawn, calls = _spy_on_draws(monkeypatch)
    for a, b in (_constant_difference(kind, 40) for kind in ("identical", "all-better", "all-worse")):
        with pytest.raises(ValueError) as constant:
            paired_bootstrap_delta(a, b, **{"resamples": 10, **bad})
        assert str(constant.value) == str(drawing.value)
    assert (drawn, calls) == ([], [])


@pytest.mark.parametrize(
    "col_a, col_b",
    [
        ([2, 0, 0.5], [1, 1, 0]),
        ([math.nan, 0, -1], [0, 0, 0]),
        ([1, 0, 1], [1, 0, -1]),
        (np.array([1, 0, 3], dtype=np.int64), np.ones(3, dtype=np.int64)),
    ],
)
@pytest.mark.parametrize("test", [mcnemar_from_logs, paired_bootstrap_delta])
def test_paired_tests_refuse_entries_other_than_0_and_1(test, col_a, col_b):
    # a bool cast would read each of these as "correct"
    with pytest.raises(ValueError, match=re.escape("correctness entries must be 0/1")):
        test(col_a, col_b)
    with pytest.raises(ValueError, match=re.escape("correctness entries must be 0/1")):
        test(col_b, col_a)


def test_paired_tests_take_0_1_numbers_as_bools():
    a, b = [1, 1, 0, 0.0], np.array([0, 1, 1, 1], dtype=np.int8)
    assert mcnemar_from_logs(a, b) == mcnemar_from_logs(np.array(a, dtype=bool), b.astype(bool))
    assert paired_bootstrap_delta(a, b, resamples=30, seed=1) == paired_bootstrap_delta(
        np.array(a, dtype=bool), b.astype(bool), resamples=30, seed=1
    )


def test_bootstrap_identical_columns_degenerate():
    col = np.array([1, 0, 1, 1, 0], dtype=bool)
    result = paired_bootstrap_delta(col, col, resamples=200, seed=0)
    assert result.delta_pp == 0.0
    assert result.ci_lo == 0.0
    assert result.ci_hi == 0.0


def test_bootstrap_seed_determinism():
    gen = np.random.default_rng(5)
    a = gen.random(200) < 0.7
    b = gen.random(200) < 0.8
    r1 = paired_bootstrap_delta(a, b, resamples=500, seed=9)
    r2 = paired_bootstrap_delta(a, b, resamples=500, seed=9)
    r3 = paired_bootstrap_delta(a, b, resamples=500, seed=10)
    assert (r1.ci_lo, r1.ci_hi) == (r2.ci_lo, r2.ci_hi)
    assert (r1.ci_lo, r1.ci_hi) != (r3.ci_lo, r3.ci_hi)


@given(data=st.data(), n=st.integers(1, 50))
@settings(max_examples=40, deadline=None)
def test_bootstrap_interval_brackets_point_estimate(data, n):
    bits_a = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    bits_b = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
    a = np.array(bits_a, dtype=bool)
    b = np.array(bits_b, dtype=bool)
    result = paired_bootstrap_delta(a, b, resamples=400, seed=3)
    assert result.ci_lo <= result.delta_pp <= result.ci_hi


def test_bootstrap_coverage_on_known_gap():
    # comonotone Bernoulli pair with a true 10 pp gap; count how often the
    # 95% interval covers it across 60 independently seeded datasets. The
    # threshold is nominal coverage minus three binomial standard errors,
    # and the whole check is deterministic given the fixed seeds.
    n, datasets = 400, 60
    covered = 0
    for i in range(datasets):
        base = rng.uniforms(9000 + i, 0, np.arange(n))
        a = base < 0.75
        b = base < 0.85
        result = paired_bootstrap_delta(a, b, resamples=1200, seed=i)
        if result.ci_lo <= 10.0 <= result.ci_hi:
            covered += 1
    floor = 0.95 - 3.0 * math.sqrt(0.95 * 0.05 / datasets)
    assert covered / datasets >= floor


def test_bootstrap_validation():
    col = np.array([1, 0], dtype=bool)
    with pytest.raises(ValueError):
        paired_bootstrap_delta(col, col, resamples=0)
    with pytest.raises(ValueError):
        paired_bootstrap_delta(col, col, confidence=1.0)
    with pytest.raises(ValueError):
        paired_bootstrap_delta(col, col, seed=-2)
    for bad in ("0.9", None, math.nan, True, np.bool_(True), 0):
        with pytest.raises(ValueError, match=re.escape(f"confidence must be a number in (0, 1), got {bad!r}")):
            paired_bootstrap_delta(col, col, confidence=bad)
    got = paired_bootstrap_delta(col, ~col, resamples=50, confidence=np.float32(0.9))
    assert got == paired_bootstrap_delta(col, ~col, resamples=50, confidence=float(np.float32(0.9)))
    assert type(got.confidence) is float


def test_workers_without_affinity_fall_back_to_the_core_count(monkeypatch):
    monkeypatch.delattr(stats.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 2)
    assert stats._workers() == 2
    monkeypatch.setattr(stats.os, "cpu_count", lambda: 64)
    assert stats._workers() == stats._MAX_WORKERS
    monkeypatch.setattr(stats.os, "cpu_count", lambda: None)
    assert stats._workers() == 1
