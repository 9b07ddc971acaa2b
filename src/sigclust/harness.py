"""Scenario-driven simulation studies: type-I-error and power grids.

A scenario draws n observations from a spiked Gaussian (w variances at v,
the rest at 1), optionally shifted into a two-component mean mixture, runs
the significance test under one or more null-spectrum methods, and
aggregates the empirical p-values per (scenario, method) cell: their mean
and the counts below 0.05 and 0.1. Cells of one shape share each
replication's null; how it is simulated (which arms, in which passes) is
the engine's plan. Scenario grids can be loaded from CSV files; a 31-cell
single-cluster grid over (v, w) combinations ships with the package.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from ._streams import SCENARIO_DATA, SCENARIO_TEST, as_generator, seed_int, stream
from .engine import (
    METHODS, MIN_N_SIM, TestConfig, _pool, _prelude, _reports, _shared_nulls, check_methods,
    check_workers, resolve_seed,
)
from .errors import InvalidConfigError, ParseError, SigClustError
from .io import _open_text, _write_lines
from .linalg import DataMatrix

MODES = ("none", "first", "all")
# Scenario-file column -> (ScenarioSpec field, cell parser), in file order.
_COLUMNS = {
    "v": ("v", float), "w": ("w", int), "d": ("d", int), "n": ("n", int),
    "a": ("signal_a", float), "mode": ("signal_mode", lambda cell: cell.strip().lower()),
    "reps": ("reps", int), "n_sim": ("n_sim", int),
}
SCENARIO_COLUMNS = tuple(_COLUMNS)

# Desk-scale caps, by ScenarioSpec field, for scenario files run below full scale.
DESK_REPS_CAP = 20
DESK_NSIM_CAP = 200
_DESK_CAPS = {"reps": DESK_REPS_CAP, "n_sim": DESK_NSIM_CAP}


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
        if not (math.isfinite(self.v) and math.isfinite(self.signal_a)):
            raise InvalidConfigError(f"need finite v and signal_a, got {self.v}, {self.signal_a}")
        if self.signal_mode == "none" and self.signal_a != 0.0:
            raise InvalidConfigError('signal_a must be 0 when signal_mode is "none"')
        if self.signal_a < 0.0:
            raise InvalidConfigError("signal_a must be >= 0")
        if self.d < 1 or self.n < 2:
            raise InvalidConfigError(f"need d >= 1 and n >= 2, got d={self.d}, n={self.n}")
        if not 0 <= self.w <= self.d:
            raise InvalidConfigError(f"need 0 <= w <= d, got w={self.w}, d={self.d}")
        if self.v < 1.0:
            raise InvalidConfigError(f"spike height v must be >= 1, got {self.v}")
        if self.reps < 1:
            raise InvalidConfigError("reps must be >= 1")
        if self.n_sim < MIN_N_SIM:
            raise InvalidConfigError(f"n_sim must be >= {MIN_N_SIM}, got {self.n_sim}")
        check_methods(self.methods)
        object.__setattr__(self, "master_seed", resolve_seed(self.master_seed))


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

    def _n_valid(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.pvalues)))

    @property
    def mean_p(self) -> float:
        """Mean of the valid p-values; NaN when every rep failed."""
        count = self._n_valid()
        return float(np.nansum(self.pvalues) / count) if count else math.nan

    @property
    def p5_count(self) -> int:
        return int(np.count_nonzero(self.pvalues < 0.05))

    @property
    def p10_count(self) -> int:
        return int(np.count_nonzero(self.pvalues < 0.1))

    def rejection_rate(self, level: float = 0.05) -> float:
        count = self._n_valid()
        return float(np.count_nonzero(self.pvalues < level) / count) if count else math.nan


@dataclass(frozen=True)
class GridSummary:
    """All cells of a grid run: per scenario, one per method of its spec, in order."""

    cells: tuple[CellSummary, ...]


def run_grid(specs, workers: int = 1) -> GridSummary:
    """Run every scenario cell and aggregate p-values per method.

    Each replication generates one data set and runs all of the scenario's
    methods on it, sharing the observed statistic and the estimated
    spectra. Cells that share d, n, n_sim and the master seed form a group,
    in order of first appearance, and draw the same null streams in each
    replication. Per group and replication, the cells' preludes (observed
    index and spectra, not the data) go to one ``engine._shared_nulls``
    call, which simulates each distinct spectrum once, in passes that fit
    the engine's memory budget. Each arm's null does not depend on the arms
    beside it, so every p-value equals that of the cell run alone. With
    ``workers`` > 1 every null pass runs on one process pool, shut down
    before this returns. A failed replication is recorded as a warning on
    every method of its cell, and of no other cell, rather than aborting
    the grid; a bad ``workers`` raises before any runs.
    """
    check_workers(workers)
    specs = list(specs)
    pvals = [np.full((len(s.methods), s.reps), np.nan) for s in specs]
    warns: list[list[str]] = [[] for _ in specs]
    groups: dict[tuple, list[int]] = {}
    for i, s in enumerate(specs):
        groups.setdefault((s.d, s.n, s.n_sim, s.master_seed), []).append(i)
    with _pool(workers) as pool:
        for members in groups.values():
            for rep in range(max(specs[i].reps for i in members)):
                preludes = {}
                for i in (i for i in members if rep < specs[i].reps):
                    try:
                        preludes[i] = _cell_prelude(specs[i], rep)
                    except SigClustError as err:
                        warns[i].append(f"rep {rep}: {err}")
                nulls = _shared_nulls(list(preludes.values()), pool)
                for (i, prelude), cis in zip(preludes.items(), nulls):
                    try:
                        reports = _reports(prelude, cis)
                    except SigClustError as err:
                        warns[i].append(f"rep {rep}: {err}")
                        continue
                    pvals[i][:, rep] = [reports[m].p_empirical for m in specs[i].methods]
                    # Every method of a run carries the run's warnings.
                    warns[i] += (f"rep {rep}: {w}" for w in prelude.warnings)
    return GridSummary(cells=tuple(
        CellSummary(spec=spec, method=m, pvalues=p, warnings=tuple(w))
        for spec, cell_p, w in zip(specs, pvals, warns)
        for m, p in zip(spec.methods, cell_p)
    ))


def _cell_prelude(spec: ScenarioSpec, rep: int):
    """Replication ``rep``'s data set, reduced to the engine's prelude: its
    observed index and null spectra, without the data matrix."""
    config = TestConfig(
        method=spec.methods[0],
        n_sim=spec.n_sim,
        master_seed=seed_int(stream(spec.master_seed, SCENARIO_TEST, rep)),
        true_eigenvalues=true_null_eigenvalues(spec) if "true" in spec.methods else None,
    )
    return _prelude(generate_scenario_sample(spec, rep), config, spec.methods)


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

    The file needs a header with columns v, w, d, n, a, mode, reps, n_sim,
    and every row as wide as the header. Unless ``full_scale`` is set, reps
    and n_sim are capped at the desk-scale profile (20 and 200). All
    scenarios share ``master_seed`` so that equal (rep, seed) pairs reuse
    identical Gaussian draws: ``run_grid`` then draws each null replication
    once for the rows that share d, n and n_sim. A negative seed raises
    before the file is read.
    """
    master_seed = resolve_seed(master_seed)
    methods, specs = tuple(methods), []
    with _open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in _COLUMNS if c not in header]
        if missing:
            raise ParseError(f"{path}: scenario file is missing columns {missing}", line=1)
        for cells in filter(None, reader):  # blank lines skipped
            i = reader.line_num
            try:
                if len(cells) != len(header):
                    raise ValueError(f"expected {len(header)} cells, got {len(cells)}")
                fields = {f: parse(cells[header.index(c)]) for c, (f, parse) in _COLUMNS.items()}
                if not full_scale:
                    fields.update({f: min(fields[f], cap) for f, cap in _DESK_CAPS.items()})
                specs.append(ScenarioSpec(**fields, methods=methods, master_seed=master_seed))
            except ValueError as err:
                raise ParseError(f"{path}: line {i}: bad scenario row: {err}", line=i) from err
            except InvalidConfigError as err:
                raise InvalidConfigError(f"{path}: line {i}: {err}") from err
    if not specs:
        raise ParseError(f"{path}: scenario file has no data rows", line=1)
    return specs


def summary_rows(grid: GridSummary) -> tuple[list[str], list[list]]:
    """Header and rows of the wide per-scenario summary table.

    One row per scenario run, with mean, P5, and P10 columns for each method
    of any cell, in order of first appearance; a scenario that lacks a method
    leaves its three cells empty, and one whose reps all failed leaves its
    mean empty.
    """
    methods = list(dict.fromkeys(c.method for c in grid.cells))
    head = list(SCENARIO_COLUMNS)
    for m in methods:
        head += [f"{m}_mean", f"{m}_p5", f"{m}_p10"]
    rows, i = [], 0
    while i < len(grid.cells):
        spec = grid.cells[i].spec
        by_method = {c.method: c for c in grid.cells[i : i + len(spec.methods)]}
        i += len(spec.methods)
        row = [f"{getattr(spec, f):g}" if parse is float else getattr(spec, f)
               for f, parse in _COLUMNS.values()]
        for m in methods:
            c = by_method.get(m)
            if c is None:
                row += ["", "", ""]
                continue
            row += ["" if math.isnan(c.mean_p) else f"{c.mean_p:.6g}", c.p5_count, c.p10_count]
        rows.append(row)
    return head, rows


def write_summary_json(grid: GridSummary, path) -> None:
    """Machine-readable twin of the CSV summary, with full p-value vectors."""
    cells = [
        {
            **{col: getattr(cell.spec, field) for col, (field, _) in _COLUMNS.items()},
            "master_seed": cell.spec.master_seed,
            "method": cell.method,
            "mean_p": None if math.isnan(cell.mean_p) else cell.mean_p,
            "p5_count": cell.p5_count,
            "p10_count": cell.p10_count,
            "pvalues": [None if np.isnan(p) else float(p) for p in cell.pvalues],
            "warnings": list(cell.warnings),
        }
        for cell in grid.cells
    ]
    _write_lines(path, [json.dumps({"cells": cells}, indent=2)])
