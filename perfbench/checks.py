"""Output checks for every benchmark operation.

The checks hold for any correct implementation, including one that draws
its null samples from different random streams with the same distribution;
none compares null indices bit for bit. The reference 2-means here follows
the original algorithm step for step (seeded distinct-pair starts, ties keep
their label, emptied clusters refilled with the farthest point, at most 300
Lloyd sweeps), in plain d-space arithmetic, so that it reproduces the
original observed index and samples the original null distribution.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np

MAX_LLOYD_ITER = 300
OBSERVED_DOMAIN = 1  # spawn-key domain of the observed statistic's k-means stream
CI_OBSERVED_ATOL = 1e-12
NULL_MEAN_Z = 5.0  # Monte Carlo tolerance, in standard errors of the difference


def _margin(values, c1, c2):
    return (c1 - c2) @ values - 0.5 * (c1 @ c1 - c2 @ c2)


def _centroids(values, labels, row_total):
    mask2 = (labels == 2).astype(np.float64)
    n2 = mask2.sum()
    s2 = values @ mask2
    return (row_total - s2) / (values.shape[1] - n2), s2 / n2, n2


def _refill(values, labels, row_total):
    n = values.shape[1]
    for k in (1, 2):
        if not np.any(labels == k):
            dist = ((values - (row_total / n)[:, None]) ** 2).sum(axis=0)
            labels = labels.copy()
            labels[int(np.argmax(dist))] = k
    return labels


def reference_best_labels(values: np.ndarray, restarts: int, rng) -> np.ndarray:
    """Labels (1/2) of the best of ``restarts`` seeded Lloyd runs."""
    n = values.shape[1]
    row_total = values.sum(axis=1)
    total_sq = float((values * values).sum())
    best, best_wss = None, math.inf
    for _ in range(restarts):
        i = int(rng.integers(n))
        j = int(rng.integers(n - 1))
        j += j >= i
        labels = np.where(_margin(values, values[:, i], values[:, j]) >= 0.0, 1, 2)
        for _ in range(MAX_LLOYD_ITER):
            labels = _refill(values, labels, row_total)
            c1, c2, _ = _centroids(values, labels, row_total)
            g = _margin(values, c1, c2)
            new = np.where(g > 0.0, 1, np.where(g < 0.0, 2, labels))
            if np.array_equal(new, labels):
                break
            labels = new
        labels = _refill(values, labels, row_total)
        c1, c2, n2 = _centroids(values, labels, row_total)
        wss = max(total_sq - (n - n2) * float(c1 @ c1) - n2 * float(c2 @ c2), 0.0)
        if wss < best_wss:
            best, best_wss = labels, wss
    return best


def reference_ci(values: np.ndarray, labels: np.ndarray) -> float:
    centered = values - values.mean(axis=1, keepdims=True)
    wss = 0.0
    for k in (1, 2):
        cols = values[:, labels == k]
        delta = cols - cols.mean(axis=1, keepdims=True)
        wss += float((delta * delta).sum())
    return wss / float((centered * centered).sum())


def observed_generator(master_seed: int) -> np.random.Generator:
    """The k-means stream of the observed statistic for ``master_seed``."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(OBSERVED_DOMAIN,))
    return np.random.Generator(np.random.Philox(seq))


def reference_observed_ci(values: np.ndarray, master_seed: int, restarts: int = 100) -> float:
    labels = reference_best_labels(values, restarts, observed_generator(master_seed))
    return reference_ci(values, labels)


def reference_null(arms: list[np.ndarray], n: int, reps: int, seed: int, restarts: int = 20):
    """Null cluster indices of each arm (a length-d eigenvalue vector) over
    ``reps`` replications; the arms of one replication share the Gaussian
    draw and the k-means starts, as the combined method requires."""
    rng = np.random.default_rng(seed)
    out = np.empty((reps, len(arms)))
    for r in range(reps):
        z = rng.standard_normal((arms[0].size, n))
        km_seed = int(rng.integers(2**63))
        for k, lam in enumerate(arms):
            values = np.sqrt(lam)[:, None] * z
            labels = reference_best_labels(values, restarts, np.random.default_rng(km_seed))
            out[r, k] = reference_ci(values, labels)
    return out


def sigma_sq(values: np.ndarray) -> float:
    """MAD noise variance over all entries, rescaled to the normal MAD."""
    entries = values.ravel()
    mad = float(np.median(np.abs(entries - np.median(entries))))
    return (mad / NormalDist().inv_cdf(0.75)) ** 2


def sample_eigenvalues(values: np.ndarray) -> np.ndarray:
    """Nonzero-candidate eigenvalues (length n) of the 1/n sample covariance."""
    centered = values - values.mean(axis=1, keepdims=True)
    n = centered.shape[1]
    return np.sort(np.linalg.eigvalsh(centered.T @ centered / n))[::-1]


class TestReference:
    """What a correct ``sigclust test`` must report for one input and seed."""

    def __init__(self, values, master_seed, method, n_sim, check_seed, null_reps):
        self.values = values
        self.method = method
        self.n_sim = n_sim
        self.ci_observed = reference_observed_ci(values, master_seed)
        self.sigma_sq = sigma_sq(values)
        self.eigenvalues = sample_eigenvalues(values)
        self.check_seed = check_seed
        self.null_reps = null_reps
        self.null_mean = self.null_sd = None

    def _null_moments(self, report):
        # Simulated once per run, from the first report's (validated) spectra.
        if self.null_mean is None:
            spec = report["spectrum"]
            arms = [np.asarray(spec[k]["eigenvalues"]) for k in ("hard", "soft")] \
                if self.method == "combined" else [np.asarray(spec["eigenvalues"])]
            cis = reference_null(arms, self.values.shape[1], self.null_reps, self.check_seed)
            null = cis.min(axis=1)
            self.null_mean = float(null.mean())
            self.null_sd = float(null.std(ddof=1))
        return self.null_mean, self.null_sd

    def _check_spectrum(self, spec) -> list[str]:
        problems = []
        lam = np.asarray(spec["eigenvalues"])
        s2 = spec["sigma_n_sq"]
        if not math.isclose(s2, self.sigma_sq, rel_tol=1e-9):
            problems.append(f"{spec['method']}: sigma_n_sq {s2} != reference {self.sigma_sq}")
        flat = spec["method"] == "soft" and spec["tau"] is None  # trace/d fallback
        if not flat and np.any(lam < s2 * (1 - 1e-12)):
            problems.append(f"{spec['method']}: eigenvalue below the noise floor")
        if spec["method"] == "hard":
            padded = np.zeros(lam.size)
            k = min(lam.size, self.eigenvalues.size)
            padded[:k] = self.eigenvalues[:k]
            expect = np.maximum(padded, s2)
            if not np.allclose(lam, expect, rtol=1e-8, atol=1e-8 * s2):
                problems.append("hard: eigenvalues differ from max(sample, sigma^2)")
        if spec["method"] == "soft":
            trace = float(self.eigenvalues[: self.values.shape[1] - 1].sum())
            if not math.isclose(float(lam.sum()), trace, rel_tol=1e-8):
                problems.append("soft: spectrum does not keep the sample trace")
        return problems

    def check(self, out_dir: Path) -> list[str]:
        report = json.loads((out_dir / "report.json").read_text())
        with open(out_dir / "null_cis.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        null = np.array([float(r[1]) for r in rows])
        problems = []
        if report["method"] != self.method or report["n_sim"] != self.n_sim:
            problems.append("report echoes the wrong method or n_sim")
        if null.size != self.n_sim:
            problems.append(f"null_cis.csv has {null.size} rows, expected {self.n_sim}")
            return problems
        if not np.all((null > 0.0) & (null <= 1.0)):
            problems.append("a null index lies outside (0, 1]")
        ci = report["ci_observed"]
        p = (1 + int(np.count_nonzero(null <= ci))) / (self.n_sim + 1)
        if report["p_empirical"] != p:
            problems.append(f"p_empirical {report['p_empirical']} != recomputed {p}")
        if abs(ci - self.ci_observed) > CI_OBSERVED_ATOL:
            problems.append(f"ci_observed {ci!r} != reference {self.ci_observed!r}")
        spec = report["spectrum"]
        for s in (spec["hard"], spec["soft"]) if self.method == "combined" else (spec,):
            problems += self._check_spectrum(s)
        if problems:
            return problems
        ref_mean, ref_sd = self._null_moments(report)
        se = math.hypot(report["null_sd"] / math.sqrt(self.n_sim), ref_sd / math.sqrt(self.null_reps))
        if abs(report["null_mean"] - ref_mean) > NULL_MEAN_Z * se:
            problems.append(
                f"null_mean {report['null_mean']:.6g} is {abs(report['null_mean'] - ref_mean) / se:.1f}"
                f" standard errors from the reference {ref_mean:.6g}"
            )
        return problems


def check_grid(out_dir: Path, n_cells: int, n_sim: int) -> list[str]:
    """Per replication: every p-value present, a multiple of 1/(n_sim+1) in
    (0, 1], and p_combined >= max(p_hard, p_soft)."""
    cells = json.loads((out_dir / "summary.json").read_text())["cells"]
    problems = []
    by_cell: dict[tuple, dict[str, list]] = {}
    for c in cells:
        by_cell.setdefault((c["v"], c["w"]), {})[c["method"]] = c["pvalues"]
    if len(by_cell) != n_cells:
        problems.append(f"summary has {len(by_cell)} scenarios, expected {n_cells}")
    for key, pv in by_cell.items():
        for method, ps in pv.items():
            for rep, p in enumerate(ps):
                if p is None or not 0.0 < p <= 1.0:
                    problems.append(f"cell {key} {method} rep {rep}: p-value {p}")
                elif abs(p * (n_sim + 1) - round(p * (n_sim + 1))) > 1e-9:
                    problems.append(f"cell {key} {method} rep {rep}: p*(n_sim+1) not whole")
        for rep, pc in enumerate(pv["combined"]):
            ph, ps_ = pv["hard"][rep], pv["soft"][rep]
            if None not in (pc, ph, ps_) and pc < max(ph, ps_):
                problems.append(f"cell {key} rep {rep}: p_combined < max(p_hard, p_soft)")
    return problems


class SpectrumReference:
    """What a correct ``sigclust spectrum`` must print for one input: the soft
    column keeps the sample trace, hard >= sigma^2, and sigma^2 and the
    leading sample eigenvalues match the reference."""

    def __init__(self, values: np.ndarray):
        self.d = values.shape[0]
        self.sigma_sq = sigma_sq(values)
        self.leading = sample_eigenvalues(values)[:5]

    def check(self, out_dir: Path, stdout: str) -> list[str]:
        with open(out_dir / "spectrum.csv", newline="") as fh:
            table = np.array(list(csv.reader(fh))[1:], dtype=np.float64)
        if table.shape != (self.d, 4):
            return [f"spectrum.csv has shape {table.shape}"]
        s2 = float(next(l.split(":")[1] for l in stdout.splitlines()
                        if l.startswith("sigma_n_sq:")))
        sample, hard, soft = table[:, 1], table[:, 2], table[:, 3]
        problems = []
        if not math.isclose(s2, self.sigma_sq, rel_tol=1e-8):
            problems.append(f"sigma_n_sq {s2} != reference {self.sigma_sq}")
        if np.any(hard < s2 * (1 - 1e-8)):
            problems.append("hard eigenvalue below sigma^2")
        if not math.isclose(soft.sum(), sample.sum(), rel_tol=1e-7):
            problems.append(f"soft trace {soft.sum()} != sample trace {sample.sum()}")
        if not np.allclose(sample[:5], self.leading, rtol=1e-8):
            problems.append("leading sample eigenvalues differ from the reference")
        return problems
