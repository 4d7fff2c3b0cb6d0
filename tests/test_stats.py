"""Paired tests: frozen reference rows, tail-function oracles, bootstrap."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refineloop import rng
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


# -- chi-square tail -----------------------------------------------------------


def test_chi_square_quantile_self_check():
    assert chi_square_survival(3.841) == pytest.approx(0.05, abs=1e-4)


def test_chi_square_against_erfc_oracle():
    # for one degree of freedom the survival function is erfc(sqrt(x/2))
    for x in np.concatenate([np.linspace(0.0, 5.0, 41), np.linspace(5.0, 60.0, 23)]):
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


def test_bootstrap_draws_every_index_through_rng_uniforms(monkeypatch):
    # the benchmark traces the kernel's draws at rng.uniforms, so a kernel
    # that generated them any other way would go unmeasured
    n, resamples = 3_000, 70
    drawn = []
    coordinates = set()
    uniforms = rng.uniforms

    def counting(seed, stream, index):
        u = uniforms(seed, stream, index)
        drawn.append(u.size)
        st, ix = np.broadcast_arrays(np.asarray(stream), np.asarray(index))
        coordinates.update(zip(st.ravel().tolist(), ix.ravel().tolist()))
        return u

    gen = np.random.default_rng(4)
    a = gen.random(n) < 0.6
    b = gen.random(n) < 0.65
    expected = paired_bootstrap_delta(a, b, resamples=resamples, seed=2)
    monkeypatch.setattr("refineloop.rng.uniforms", counting)
    assert paired_bootstrap_delta(a, b, resamples=resamples, seed=2) == expected
    assert sum(drawn) == resamples * n
    assert coordinates == {
        (rng.BOOTSTRAP_STREAM_BASE + r, i) for r in range(resamples) for i in range(n)
    }


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
