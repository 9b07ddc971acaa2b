"""Scenario-driven simulation studies: type-I-error and power grids.

A scenario draws n observations from a spiked Gaussian (w variances at v,
the rest at 1), optionally shifted into a two-component mean mixture, runs
the significance test under one or more null-spectrum methods, and
aggregates the empirical p-values per (scenario, method) cell: their mean
and the counts below 0.05 and 0.1. Scenario grids can be loaded from CSV
files; a 31-cell single-cluster grid over (v, w) combinations ships with
the package.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from ._streams import SCENARIO_DATA, SCENARIO_TEST, as_generator, seed_int, stream
from .engine import (
    METHODS, MIN_N_SIM, TestConfig, _pool, _run_tests, check_methods, check_seed, check_workers,
)
from .errors import InvalidConfigError, ParseError, SigClustError
from .linalg import DataMatrix

MODES = ("none", "first", "all")
SCENARIO_COLUMNS = ("v", "w", "d", "n", "a", "mode", "reps", "n_sim")

# Desk-scale caps applied to scenario files unless full scale is requested.
DESK_REPS_CAP = 20
DESK_NSIM_CAP = 200


@dataclass(frozen=True)
class ScenarioSpec:
    """One simulation cell: population, signal, and replication budget.

    ``signal_mode`` "none" draws a single Gaussian; "first" and "all" draw
    a fair-coin mixture of the Gaussian and a copy shifted by ``signal_a``
    in the first coordinate or in every coordinate.
    """

    d: int
    n: int
    v: float = 1.0
    w: int = 0
    signal_a: float = 0.0
    signal_mode: str = "none"
    reps: int = DESK_REPS_CAP
    n_sim: int = DESK_NSIM_CAP
    methods: tuple[str, ...] = ("sample", "hard", "soft", "combined")
    master_seed: int | None = None

    def __post_init__(self):
        if self.signal_mode not in MODES:
            raise InvalidConfigError(
                f"signal_mode must be one of {MODES}, got {self.signal_mode!r}"
            )
        if self.signal_mode == "none" and self.signal_a != 0.0:
            raise InvalidConfigError('signal_a must be 0 when signal_mode is "none"')
        if self.signal_a < 0.0:
            raise InvalidConfigError("signal_a must be >= 0")
        if not 0 <= self.w <= self.d:
            raise InvalidConfigError(f"need 0 <= w <= d, got w={self.w}, d={self.d}")
        if self.v < 1.0:
            raise InvalidConfigError(f"spike height v must be >= 1, got {self.v}")
        if self.reps < 1:
            raise InvalidConfigError("reps must be >= 1")
        if self.n_sim < MIN_N_SIM:
            raise InvalidConfigError(f"n_sim must be >= {MIN_N_SIM}, got {self.n_sim}")
        check_methods(self.methods)
        check_seed(self.master_seed)
        if self.master_seed is None:
            object.__setattr__(self, "master_seed", seed_int(np.random.SeedSequence()))


def generate_scenario_sample(spec: ScenarioSpec, rep: int) -> DataMatrix:
    """Data set for replication ``rep``, deterministic per (seed, rep).

    Mixture membership is an i.i.d. fair coin per observation, drawn after
    the Gaussian block so that all modes coincide exactly when the shift is
    zero.
    """
    rng = as_generator(stream(spec.master_seed, SCENARIO_DATA, int(rep)))
    sd = np.ones(spec.d)
    sd[: spec.w] = np.sqrt(spec.v)
    x = sd[:, None] * rng.standard_normal((spec.d, spec.n))
    if spec.signal_mode != "none":
        components = rng.random(spec.n) < 0.5
        if spec.signal_a != 0.0:
            mu = np.zeros(spec.d)
            if spec.signal_mode == "first":
                mu[0] = spec.signal_a
            else:
                mu[:] = spec.signal_a
            x[:, components] += mu[:, None]
    return DataMatrix(x)


def true_null_eigenvalues(spec: ScenarioSpec) -> np.ndarray:
    """Covariance eigenvalues of the scenario's generating distribution.

    For mixtures the shift adds b = 0.25 * a^2 times the outer product of
    the shift direction to the component covariance: a first-coordinate
    shift only bumps the top diagonal entry, while diag(lam) + b * 11ᵀ keeps
    v and 1 on the directions summing to zero within each (nonempty) block
    and mixes the two block means in a 2-by-2 matrix.
    """
    lam = np.ones(spec.d)
    lam[: spec.w] = spec.v
    if spec.signal_mode == "none" or spec.signal_a == 0.0:
        return lam
    bump = 0.25 * spec.signal_a**2
    if spec.signal_mode == "first":
        lam[0] += bump
        return np.sort(lam)[::-1]
    sizes = np.array([spec.w, spec.d - spec.w])
    values = np.array([spec.v, 1.0])[sizes > 0]
    sizes = sizes[sizes > 0]
    root = np.sqrt(sizes)
    mixed = np.linalg.eigvalsh(np.diag(values) + bump * np.outer(root, root))
    # The update lowers no eigenvalue: clamping its round-off keeps the
    # spectrum exactly flat at its floor.
    lam = np.r_[np.repeat(values, sizes - 1), np.maximum(mixed, values.min())]
    return np.sort(lam)[::-1]


@dataclass(frozen=True)
class CellSummary:
    """Aggregated p-values of one (scenario, method) cell.

    ``pvalues`` is in replication order with NaN marking failed reps, which
    are also described in ``warnings``.
    """

    spec: ScenarioSpec
    method: str
    pvalues: np.ndarray
    warnings: tuple[str, ...] = ()

    @property
    def mean_p(self) -> float:
        return float(np.nanmean(self.pvalues))

    @property
    def p5_count(self) -> int:
        return int(np.count_nonzero(self.pvalues < 0.05))

    @property
    def p10_count(self) -> int:
        return int(np.count_nonzero(self.pvalues < 0.1))

    def rejection_rate(self, level: float = 0.05) -> float:
        valid = self.pvalues[~np.isnan(self.pvalues)]
        if valid.size == 0:
            return float("nan")
        return float(np.count_nonzero(valid < level) / valid.size)


@dataclass(frozen=True)
class GridSummary:
    """All cells of a grid run, in (scenario, method) order."""

    cells: tuple[CellSummary, ...]


def run_grid(specs, workers: int = 1) -> GridSummary:
    """Run every scenario cell and aggregate p-values per method.

    Each replication generates one data set and runs all of the scenario's
    methods on it, sharing the observed statistic and the estimated
    spectra. With ``workers`` > 1 every replication runs its null on one
    process pool, shut down before this returns. A failed replication is
    recorded as a warning on every method of its cell rather than
    aborting the grid; a bad ``workers`` raises before any runs.
    """
    check_workers(workers)
    cells = []
    with _pool(workers) as pool:
        for spec in specs:
            pvals = {m: np.full(spec.reps, np.nan) for m in spec.methods}
            warns: dict[str, list[str]] = {m: [] for m in spec.methods}
            true_eigs = true_null_eigenvalues(spec) if "true" in spec.methods else None
            for rep in range(spec.reps):
                try:
                    x = generate_scenario_sample(spec, rep)
                    config = TestConfig(
                        method=spec.methods[0],
                        n_sim=spec.n_sim,
                        master_seed=seed_int(stream(spec.master_seed, SCENARIO_TEST, rep)),
                        true_eigenvalues=true_eigs,
                    )
                    reports = _run_tests(x, config, spec.methods, pool)
                except SigClustError as err:
                    for m in spec.methods:
                        warns[m].append(f"rep {rep}: {err}")
                    continue
                for m in spec.methods:
                    pvals[m][rep] = reports[m].p_empirical
                    for w in reports[m].warnings:
                        warns[m].append(f"rep {rep}: {w}")
            for m in spec.methods:
                cells.append(
                    CellSummary(
                        spec=spec, method=m, pvalues=pvals[m], warnings=tuple(warns[m])
                    )
                )
    return GridSummary(cells=tuple(cells))


def builtin_calibration_grid_path() -> Path:
    """Path of the packaged 31-cell single-cluster (v, w) scenario grid."""
    return Path(resources.files("sigclust").joinpath("data/single_cluster_grid.csv"))


def load_scenario_file(
    path,
    methods: tuple[str, ...] = METHODS,
    master_seed: int | None = None,
    full_scale: bool = False,
) -> list[ScenarioSpec]:
    """Parse a scenario CSV into specs.

    The file needs a header with columns v, w, d, n, a, mode, reps, n_sim.
    Unless ``full_scale`` is set, reps and n_sim are capped at the
    desk-scale profile (20 and 200). All scenarios share ``master_seed`` so
    that equal (rep, seed) pairs reuse identical Gaussian draws; a negative
    one raises before the file is read.
    """
    check_seed(master_seed)
    if master_seed is None:
        master_seed = seed_int(np.random.SeedSequence())
    specs = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = tuple(reader.fieldnames or ())
        missing = [c for c in SCENARIO_COLUMNS if c not in header]
        if missing:
            raise ParseError(f"{path}: scenario file is missing columns {missing}", line=1)
        for i, row in enumerate(reader, start=2):
            try:
                reps = int(row["reps"])
                n_sim = int(row["n_sim"])
                if not full_scale:
                    reps = min(reps, DESK_REPS_CAP)
                    n_sim = min(n_sim, DESK_NSIM_CAP)
                specs.append(
                    ScenarioSpec(
                        d=int(row["d"]),
                        n=int(row["n"]),
                        v=float(row["v"]),
                        w=int(row["w"]),
                        signal_a=float(row["a"]),
                        signal_mode=row["mode"].strip().lower(),
                        reps=reps,
                        n_sim=n_sim,
                        methods=tuple(methods),
                        master_seed=master_seed,
                    )
                )
            except (ValueError, KeyError) as err:
                raise ParseError(f"{path}: line {i}: bad scenario row: {err}", line=i) from err
            except InvalidConfigError as err:
                raise InvalidConfigError(f"{path}: line {i}: {err}") from err
    if not specs:
        raise ParseError(f"{path}: scenario file has no data rows", line=1)
    return specs


def summary_rows(grid: GridSummary) -> tuple[list[str], list[list]]:
    """Header and rows of the wide per-scenario summary table.

    One row per scenario with mean, P5, and P10 columns for each method of
    any cell, in order of first appearance; a scenario that lacks a method
    leaves its three cells empty.
    """
    methods = list(dict.fromkeys(c.method for c in grid.cells))
    head = list(SCENARIO_COLUMNS)
    for m in methods:
        head += [f"{m}_mean", f"{m}_p5", f"{m}_p10"]
    rows = []
    for _, cells in itertools.groupby(grid.cells, key=lambda c: id(c.spec)):
        by_method = {c.method: c for c in cells}
        spec = next(iter(by_method.values())).spec
        row = [
            f"{spec.v:g}", spec.w, spec.d, spec.n, f"{spec.signal_a:g}",
            spec.signal_mode, spec.reps, spec.n_sim,
        ]
        for m in methods:
            c = by_method.get(m)
            row += ["", "", ""] if c is None else [f"{c.mean_p:.6g}", c.p5_count, c.p10_count]
        rows.append(row)
    return head, rows


def write_summary_csv(grid: GridSummary, path) -> None:
    """Wide per-scenario table: mean, P5, and P10 columns for each method."""
    head, rows = summary_rows(grid)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(head)
        writer.writerows(rows)


def write_summary_json(grid: GridSummary, path) -> None:
    """Machine-readable twin of the CSV summary, with full p-value vectors."""
    cells = []
    for cell in grid.cells:
        spec = cell.spec
        cells.append(
            {
                "v": spec.v,
                "w": spec.w,
                "d": spec.d,
                "n": spec.n,
                "a": spec.signal_a,
                "mode": spec.signal_mode,
                "reps": spec.reps,
                "n_sim": spec.n_sim,
                "master_seed": spec.master_seed,
                "method": cell.method,
                "mean_p": cell.mean_p,
                "p5_count": cell.p5_count,
                "p10_count": cell.p10_count,
                "pvalues": [None if np.isnan(p) else float(p) for p in cell.pvalues],
                "warnings": list(cell.warnings),
            }
        )
    with open(path, "w") as fh:
        json.dump({"cells": cells}, fh, indent=2)
        fh.write("\n")
