"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure). The anti-conservative-regime grid is the long test; everything
else finishes in seconds. Seeds are fixed so every criterion is
deterministic.
"""

import re
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from exhaustive_reference import two_means_exhaustive
from sigclust import (
    DataMatrix,
    EigenSpectrum,
    MAD_STD_NORMAL,
    NoiseEstimate,
    ScenarioSpec,
    TestConfig,
    cluster_index_for_labels,
    hard_threshold,
    run_grid,
    run_tests,
    soft_threshold,
    theoretical_ci,
    two_means_ci,
)
from sigclust.cli import main


def _criterion(number, description, passed):
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def _spectrum_of(eigenvalues):
    lam = np.asarray(eigenvalues, dtype=np.float64)
    return EigenSpectrum(eigenvalues=lam, trace=float(lam.sum()), d=lam.size, n=10)


def _noise(sigma_sq):
    return NoiseEstimate(sigma_n_sq=sigma_sq, mad_raw=np.sqrt(sigma_sq) * MAD_STD_NORMAL)


def _random_spectra(count, rng, d_max):
    for _ in range(count):
        d = int(rng.integers(5, d_max + 1))
        n_spikes = int(rng.integers(0, min(d, 12) + 1))
        lam = rng.uniform(0.05, 1.5, size=d)
        lam[:n_spikes] += rng.uniform(2.0, 500.0, size=n_spikes)
        lam = np.sort(lam)[::-1]
        s2 = float(rng.uniform(0.05, 0.95)) * float(lam.mean())
        yield lam, s2


def test_c01_soft_trace_preservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for lam, s2 in _random_spectra(1000, rng, d_max=2000):
        out = soft_threshold(_spectrum_of(lam), _noise(s2))
        worst = max(worst, abs(out.eigenvalues.sum() - lam.sum()) / lam.sum())

    one = soft_threshold(_spectrum_of([10.0, 0.5, 0.5]), _noise(1.0))
    two = soft_threshold(_spectrum_of([6.0, 3.0, 0.3, 0.3, 0.3, 0.1]), _noise(1.0))
    hand_ok = (
        abs(one.tau - 1.0) <= 1e-10
        and np.max(np.abs(one.eigenvalues - [9.0, 1.0, 1.0])) <= 1e-10
        and abs(two.tau - 1.5) <= 1e-10
        and np.max(np.abs(two.eigenvalues - [4.5, 1.5, 1.0, 1.0, 1.0, 1.0])) <= 1e-10
    )
    elapsed = time.perf_counter() - t0
    _criterion(
        1,
        f"soft trace preserved (worst rel err {worst:.2e} <= 1e-8), "
        f"hand cases exact to 1e-10, {elapsed:.1f}s < 5s",
        worst <= 1e-8 and hand_ok and elapsed < 5.0,
    )


def test_c02_hard_rule_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    exact = True
    for lam, s2 in _random_spectra(1000, rng, d_max=500):
        out = hard_threshold(_spectrum_of(lam), _noise(s2))
        exact &= bool(np.array_equal(out.eigenvalues, np.maximum(lam, s2)))
    elapsed = time.perf_counter() - t0
    _criterion(
        2,
        f"hard rule equals entrywise max on 1000 spectra, {elapsed:.2f}s < 1s",
        exact and elapsed < 1.0,
    )


def test_c03_two_means_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    matches = 0
    never_below = True
    instances = 50
    for trial in range(instances):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(4, 13))
        x = DataMatrix(rng.normal(size=(d, n)))
        restarted = two_means_ci(x, restarts=100, seed=trial).ci
        exact = two_means_exhaustive(x).ci
        never_below &= restarted >= exact - 1e-12
        matches += abs(restarted - exact) <= 1e-10
    elapsed = time.perf_counter() - t0
    _criterion(
        3,
        f"2-means hits the exhaustive optimum in {matches}/{instances} (>= 48), "
        f"never below it, {elapsed:.1f}s < 30s",
        matches >= 0.95 * instances and never_below and elapsed < 30.0,
    )


def test_c04_population_index_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)
    lam = np.r_[100.0, np.ones(9)]
    draws = 1_000_000
    x = np.sqrt(lam)[:, None] * rng.standard_normal((10, draws))
    labels = np.where(x[0] > 0, 1, 2)
    split = cluster_index_for_labels(DataMatrix(x), labels)
    expected = theoretical_ci(lam)
    diff = abs(split.ci - expected)
    elapsed = time.perf_counter() - t0
    _criterion(
        4,
        f"sign-split Monte Carlo index {split.ci:.5f} within {diff:.2e} <= 0.003 "
        f"of closed form {expected:.5f}, {elapsed:.1f}s < 30s",
        diff <= 0.003 and elapsed < 30.0,
    )


def test_c05_anti_conservative_regime_desk_scale():
    spec = ScenarioSpec(
        d=1000, n=100, v=200.0, w=1, reps=20, n_sim=200,
        methods=("hard", "combined"), master_seed=20260810,
    )
    grid = run_grid([spec])
    by_method = {c.method: c for c in grid.cells}
    hard_p5 = by_method["hard"].p5_count
    combined_p5 = by_method["combined"].p5_count
    _criterion(
        5,
        f"(v=200, w=1, d=1000): hard rejects {hard_p5}/20 >= 16, "
        f"combined {combined_p5}/20 <= 2",
        hard_p5 >= 16 and combined_p5 <= 2,
    )


def test_c05_smoke_variant_reduced_dimension():
    t0 = time.perf_counter()
    spec = ScenarioSpec(
        d=300, n=50, v=200.0, w=1, reps=20, n_sim=200,
        methods=("hard", "combined"), master_seed=55,
    )
    grid = run_grid([spec])
    by_method = {c.method: c for c in grid.cells}
    hard_p5 = by_method["hard"].p5_count
    combined_p5 = by_method["combined"].p5_count
    elapsed = time.perf_counter() - t0
    _criterion(
        "5-smoke",
        f"(v=200, w=1, d=300): hard {hard_p5}/20 strictly above "
        f"combined {combined_p5}/20, {elapsed:.0f}s < 180s",
        hard_p5 > combined_p5 and elapsed < 180.0,
    )


def test_c06_conservative_regime():
    spec = ScenarioSpec(
        d=1000, n=100, v=10.0, w=100, reps=10, n_sim=100,
        methods=("sample", "hard", "combined"), master_seed=6,
    )
    grid = run_grid([spec])
    means = {c.method: c.mean_p for c in grid.cells}
    rejections = {c.method: c.p5_count for c in grid.cells}
    _criterion(
        6,
        f"(v=10, w=100): mean p {means} all >= 0.9 with zero rejections",
        all(m >= 0.9 for m in means.values())
        and all(r == 0 for r in rejections.values()),
    )


def test_c07_power_study_all_coordinates():
    base = dict(d=1000, n=100, v=100.0, w=1, reps=20, n_sim=100, master_seed=7)
    specs = [
        ScenarioSpec(signal_a=0.6, signal_mode="all", methods=("combined",), **base),
        ScenarioSpec(signal_a=0.0, signal_mode="all", methods=("combined",), **base),
        ScenarioSpec(signal_a=0.4, signal_mode="all",
                     methods=("sample", "combined"), **base),
    ]
    grid = run_grid(specs)
    rate = {
        (c.spec.signal_a, c.method): c.rejection_rate() for c in grid.cells
    }
    _criterion(
        7,
        f"combined rejects {rate[(0.6, 'combined')]:.2f} >= 0.9 at a=0.6, "
        f"{rate[(0.0, 'combined')]:.2f} <= 0.1 at a=0, and beats sample at "
        f"a=0.4 ({rate[(0.4, 'combined')]:.2f} > {rate[(0.4, 'sample')]:.2f})",
        rate[(0.6, "combined")] >= 0.9
        and rate[(0.0, "combined")] <= 0.1
        and rate[(0.4, "combined")] > rate[(0.4, "sample")],
    )


def test_c08_combined_min_property_exact():
    rng = np.random.default_rng(108)
    x = DataMatrix(rng.normal(size=(120, 30)) * rng.uniform(0.5, 4.0, size=(120, 1)))
    config = TestConfig(method="combined", n_sim=200, master_seed=88)
    reports = run_tests(x, config, ("hard", "soft", "combined"))
    recombined = np.minimum(reports["hard"].null_cis, reports["soft"].null_cis)
    exact = bool(np.array_equal(reports["combined"].null_cis, recombined))
    _criterion(
        8,
        "combined null indices equal min(hard, soft) exactly, per replication, "
        "verified by single-arm reruns",
        exact,
    )


def test_c09_determinism_across_workers(tmp_path):
    rng = np.random.default_rng(109)
    values = rng.normal(size=(40, 20))
    matrix = tmp_path / "data.csv"
    matrix.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in values) + "\n"
    )
    out = tmp_path / "out"
    texts = []
    for workers in ("1", "8", "1"):  # same seed twice serially, once fanned out
        code = main(["test", str(matrix), "--method", "combined", "--nsim", "100",
                     "--seed", "99", "--workers", workers, "--out", str(out)])
        assert code == 0
        texts.append((out / "report.json").read_text())
    stripped = [
        re.sub(r'"timing_seconds": [^\n]+', '"timing_seconds": X', t) for t in texts
    ]
    _criterion(
        9,
        "reports byte-identical across reruns and 1 vs 8 workers "
        "(timing field excluded)",
        stripped[0] == stripped[1] == stripped[2],
    )


def test_c10_true_method_null_calibration():
    spec = ScenarioSpec(
        d=200, n=50, v=1.0, w=0, reps=100, n_sim=100,
        methods=("true",), master_seed=10,
    )
    grid = run_grid([spec])
    fraction = grid.cells[0].rejection_rate()
    _criterion(
        10,
        f"true-spectrum null: fraction of p < 0.05 is {fraction:.2f}, within [0, 0.12]",
        0.0 <= fraction <= 0.12,
    )


def test_soft_tau_against_independent_root_finder():
    # Companion check for criterion 1: the bisection offset agrees with an
    # independent Brent solve of the same trace equation.
    rng = np.random.default_rng(111)
    for lam, s2 in _random_spectra(100, rng, d_max=800):
        out = soft_threshold(_spectrum_of(lam), _noise(s2))
        if out.tau == 0.0:
            continue
        target = lam.sum()

        def residual(tau):
            return np.maximum(lam - tau - s2, 0.0).sum() + lam.size * s2 - target

        oracle = brentq(residual, 0.0, float(lam[0]), xtol=1e-13)
        assert out.tau == pytest.approx(oracle, abs=1e-9 * max(lam[0], 1.0))
