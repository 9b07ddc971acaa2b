"""The four workloads: their generated inputs and the operations run on them.

Every operation goes through sigclust's public surface only: ``cli.main``
in process for the timed runs, and the names in ``sigclust.__all__`` for the
traced runs, which rebuild each command from those calls so that a span can
sit around every call into a module. Two stream-derivation rules of the
package (the observed statistic's k-means stream and the per-replication
master seed of a scenario grid) are restated here so that the rebuilt
commands compute what the CLI computes.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from checks import OBSERVED_DOMAIN, SpectrumReference, TestReference, check_grid

SCENARIO_TEST_DOMAIN = 3
GRID_METHODS = ("true", "sample", "hard", "soft", "combined")
ARMS = ("sample", "hard", "soft", "true")
NULL_INDEX_SAMPLES = 5
SHAPE_SEED = 20130523  # the draw behind every generated matrix of one shape


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "test", "grid" or "spectrum"
    d: int
    n: int
    v: float = 1.0  # spike height of the generated matrix
    w: int = 0  # spike count of the generated matrix
    method: str = "hard"  # test method; the spectrum workload probes run_tests with it
    n_sim: int = 100
    workers: int = 1
    cells: tuple = ()  # (v, w) scenario cells of a grid
    null_reps: int = 20  # reference replications behind the null-mean check

    @property
    def methods(self) -> tuple[str, ...]:
        return GRID_METHODS if self.kind == "grid" else (self.method,)

    def tiny(self) -> "Workload":
        """The same workload at a size that runs in well under a second."""
        return replace(self, d=40 if self.kind == "grid" else 80, n=12, null_reps=10)

    def describe(self) -> dict:
        return {
            "kind": self.kind, "d": self.d, "n": self.n, "n_sim": self.n_sim,
            "methods": list(self.methods), "workers": self.workers,
            "spikes": {"v": self.v, "w": self.w} if self.kind != "grid" else None,
            "cells": [list(c) for c in self.cells] or None,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload("test-combined-d1k", "test", d=1000, n=100, v=25.0, w=5,
                 method="combined", n_sim=200, null_reps=40),
        Workload("test-hard-d20k", "test", d=20000, n=100, v=100.0, w=10,
                 method="hard", n_sim=100, null_reps=16),
        Workload("grid-calib-w2", "grid", d=1000, n=100, n_sim=100, workers=2,
                 cells=((1000, 1), (40, 25), (1, 1))),
        Workload("spectrum-d20k", "spectrum", d=20000, n=100, v=100.0, w=10),
    )
}


@dataclass
class Inputs:
    path: Path
    values: np.ndarray | None = None  # the generated matrix, exactly as written
    true_eigenvalues: np.ndarray | None = None


def spiked_matrix(wl: Workload, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A draw of n observations from N(0, diag(variances)) with ``w`` variances
    at ``v`` and the rest at 1, and the variances.

    The draw is fixed per shape; ``seed`` applies a uniformly random rotation
    of the observations that keeps every row's mean. The sample spectrum, and
    with it the cost of simulating the null, is then the same for every seed,
    while the split of the observations, the k-means starts and the null
    draws change with it.
    """
    variances = np.ones(wl.d)
    variances[: wl.w] = wl.v
    base = np.sqrt(variances)[:, None] * \
        np.random.default_rng(SHAPE_SEED).standard_normal((wl.d, wl.n))
    mean = base.mean(axis=1, keepdims=True)
    rng = np.random.default_rng(seed)
    # Orthonormal basis of the complement of the all-ones vector, then a
    # Haar rotation within it; the rotation fixes the all-ones vector.
    start = np.hstack([np.ones((wl.n, 1)), rng.standard_normal((wl.n, wl.n - 1))])
    basis = np.linalg.qr(start)[0][:, 1:]
    q, r = np.linalg.qr(rng.standard_normal((wl.n - 1, wl.n - 1)))
    rotation = basis @ (q * np.sign(np.diag(r))) @ basis.T
    return mean + (base - mean) @ rotation, variances


def make_inputs(wl: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's input file into ``directory``; deterministic in seed."""
    directory.mkdir(parents=True, exist_ok=True)
    if wl.kind == "grid":
        path = directory / "scenario.csv"
        rows = [f"{v:g},{w},{wl.d},{wl.n},0,none,1,{wl.n_sim}" for v, w in wl.cells]
        path.write_text("\n".join(["v,w,d,n,a,mode,reps,n_sim", *rows]) + "\n")
        return Inputs(path)
    values, variances = spiked_matrix(wl, seed)
    path = directory / "matrix.csv"
    np.savetxt(path, values, delimiter=",")  # %.18e: parses back to the same doubles
    return Inputs(path, values, np.sort(variances)[::-1])


def cli_argv(wl: Workload, inputs: Inputs, seed: int, out: Path) -> list[str]:
    if wl.kind == "test":
        return ["test", str(inputs.path), "--method", wl.method, "--nsim", str(wl.n_sim),
                "--seed", str(seed), "--workers", str(wl.workers), "--out", str(out)]
    if wl.kind == "grid":
        return ["simulate", "--scenario", str(inputs.path), "--seed", str(seed),
                "--workers", str(wl.workers), "--out", str(out)]
    return ["spectrum", str(inputs.path), "--out", str(out)]


@dataclass
class OpResult:
    wall: float
    code: int
    stdout: str
    out_dir: Path
    problems: list[str] = field(default_factory=list)


def run_cli(sc, argv: list[str], out_dir: Path) -> OpResult:
    """One closed-loop operation: ``sigclust.cli.main(argv)`` in process."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = sc.cli.main(argv)
    except SystemExit as err:
        code = err.code if isinstance(err.code, int) else 1
    except Exception:  # an operation that raised is a failed operation
        code = -1
        traceback.print_exc()
    return OpResult(time.perf_counter() - t0, code, buf.getvalue(), out_dir)


def make_checker(wl: Workload, inputs: Inputs, seed: int):
    """Return check(op) -> list of problems, for the untraced and traced ops."""
    if wl.kind == "test":
        ref = TestReference(inputs.values, seed, wl.method, wl.n_sim, [seed, 1], wl.null_reps)
        return lambda op: ref.check(op.out_dir)
    if wl.kind == "grid":
        return lambda op: check_grid(op.out_dir, len(wl.cells), wl.n_sim)
    ref = SpectrumReference(inputs.values)
    return lambda op: ref.check(op.out_dir, op.stdout)


# --- traced operations -------------------------------------------------------

def observed_seed(seed: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=(OBSERVED_DOMAIN,))


def scenario_test_seed(master_seed: int, rep: int) -> int:
    seq = np.random.SeedSequence(master_seed, spawn_key=(SCENARIO_TEST_DOMAIN, rep))
    return int(seq.generate_state(1, np.uint64)[0])


def estimate_arms(tr, sc, x, needed) -> tuple[dict, list[str]]:
    """Null spectra for the arms in ``needed``, each call in its own span."""
    spec = tr.call("linalg.sample_spectrum", sc.sample_spectrum, x)
    noise = tr.call("spectrum.estimate_noise", sc.estimate_noise, x)
    arms, warnings = {}, []
    if "sample" in needed:
        arms["sample"] = sc.NullSpectrum(method="sample", eigenvalues=spec.padded())
    if "hard" in needed:
        arms["hard"] = tr.call("spectrum.hard_threshold", sc.hard_threshold, spec, noise)
    if "soft" in needed:
        try:
            arms["soft"] = tr.call("spectrum.soft_threshold", sc.soft_threshold, spec, noise)
        except sc.NoTraceSolutionError as err:  # the CLI's flat, trace-keeping fallback
            arms["soft"] = sc.NullSpectrum(
                method="soft", eigenvalues=np.full(spec.d, spec.trace / spec.d),
                sigma_n_sq=noise.sigma_n_sq)
            warnings.append(f"soft estimator fell back to a flat spectrum: {err}")
    return arms, warnings


def traced_test(tr, sc, wl, inputs, seed, out: Path):
    with tr.span("cli.test"):
        x = tr.call("io.load_matrix", sc.load_matrix, str(inputs.path))
        config = sc.TestConfig(method=wl.method, n_sim=wl.n_sim, master_seed=seed,
                               workers=wl.workers)
        split = tr.call("cluster.observed_two_means", sc.two_means_ci, x,
                        restarts=config.restarts_observed, seed=observed_seed(seed))
        needed = ("hard", "soft") if wl.method == "combined" else (wl.method,)
        arms, warnings = estimate_arms(tr, sc, x, needed)
        null = {a: tr.call(f"engine.simulate_null_cis.{a}", sc.simulate_null_cis,
                           arms[a], x.n, config) for a in needed}
        with tr.span("engine.p_values"):
            cis = np.minimum(null["hard"], null["soft"]) if wl.method == "combined" \
                else null[wl.method]
            mean, sd = float(cis.mean()), float(cis.std(ddof=1))
            report = sc.TestReport(
                method=wl.method, ci_observed=split.ci, null_cis=cis,
                p_empirical=sc.empirical_p(split.ci, cis),
                p_gaussian=sc.gaussian_p(split.ci, mean, sd), null_mean=mean, null_sd=sd,
                spectrum_used=(arms["hard"], arms["soft"]) if wl.method == "combined"
                else arms[wl.method],
                warnings=tuple(warnings), seed=seed, n_sim=wl.n_sim,
                restarts_null=config.restarts_null,
                restarts_observed=config.restarts_observed,
                observed_mode="two-means", timing_seconds=0.0)
        manifest = sc.RunManifest(input_path=str(inputs.path), method=wl.method,
                                  n_sim=wl.n_sim, seed=seed, out_dir=str(out))
        tr.call("io.emit_report", sc.emit_report, report, manifest)
    return x, ""


def traced_spectrum(tr, sc, wl, inputs, seed, out: Path):
    with tr.span("cli.spectrum"):
        x = tr.call("io.load_matrix", sc.load_matrix, str(inputs.path))
        arms, _ = estimate_arms(tr, sc, x, ("sample", "hard", "soft"))
        lam, hard, soft = (arms[a].eigenvalues for a in ("sample", "hard", "soft"))
        lines = ["index,sample,hard,soft"] + [
            f"{k + 1},{lam[k]:.9g},{hard[k]:.9g},{soft[k]:.9g}" for k in range(x.d)]
        out.mkdir(parents=True, exist_ok=True)
        (out / "spectrum.csv").write_text("\n".join(lines) + "\n")
    return x, f"sigma_n_sq: {arms['hard'].sigma_n_sq:.9g}\n"


def traced_grid(tr, sc, wl, inputs, seed, out: Path):
    """``sigclust simulate`` rebuilt serially (one worker) from public calls."""
    first = None
    with tr.span("cli.simulate"):
        specs = tr.call("harness.load_scenario_file", sc.load_scenario_file,
                        str(inputs.path), methods=GRID_METHODS, master_seed=seed)
        cells = []
        for spec in specs:
            true_eigs = tr.call("harness.true_null_eigenvalues", sc.true_null_eigenvalues, spec)
            pvalues = {m: [] for m in spec.methods}
            for rep in range(spec.reps):
                x = tr.call("harness.generate_scenario_sample", sc.generate_scenario_sample,
                            spec, rep)
                config = sc.TestConfig(
                    method=spec.methods[0], n_sim=spec.n_sim, true_eigenvalues=true_eigs,
                    master_seed=scenario_test_seed(spec.master_seed, rep))
                reports = tr.call("engine.run_tests", sc.run_tests, x, config, spec.methods)
                for m in spec.methods:
                    pvalues[m].append(reports[m].p_empirical)
                if first is None:
                    first = (x, true_eigs, reports)
            cells += [{"v": spec.v, "w": spec.w, "method": m, "pvalues": pvalues[m]}
                      for m in spec.methods]
        out.mkdir(parents=True, exist_ok=True)
        (out / "summary.json").write_text(json.dumps({"cells": cells}))
    return first, ""


TRACED_OPS = {"test": traced_test, "spectrum": traced_spectrum, "grid": traced_grid}


def run_traced(tr, sc, wl, inputs, seed, out: Path):
    """The workload's command rebuilt with a span around every public call."""
    tr.op = "traced"
    stdout, state = "", None
    try:
        state, stdout = TRACED_OPS[wl.kind](tr, sc, wl, inputs, seed, out)
        code = 0
    except Exception:
        code = -1
        traceback.print_exc()
    root = tr.root("traced")
    return OpResult(root["end"] - root["start"], code, stdout, out), state


def run_probes(tr, sc, wl, inputs, seed, state, work: Path) -> None:
    """Time, on this workload's data, each layer call the traced command did
    not make, so that every per-layer metric is measured on every workload."""
    tr.op = "probe"
    reports = None
    if wl.kind == "grid":
        x, true_eigs, reports = state
        csv_path = work / "probe.csv"
        np.savetxt(csv_path, x.values, delimiter=",")
        tr.call("io.load_matrix", sc.load_matrix, str(csv_path))
    else:
        x, true_eigs = state, inputs.true_eigenvalues
    arms, _ = estimate_arms(tr, sc, x, ("sample", "hard", "soft"))
    arms["true"] = sc.NullSpectrum(method="true", eigenvalues=true_eigs)
    config = sc.TestConfig(method=wl.method, n_sim=wl.n_sim, master_seed=seed)
    if not tr.durations("cluster.observed_two_means"):
        tr.call("cluster.observed_two_means", sc.two_means_ci, x,
                restarts=config.restarts_observed, seed=observed_seed(seed))
    rng = np.random.default_rng([seed, 2])
    scale = np.sqrt(arms["hard"].eigenvalues)[:, None]
    for _ in range(NULL_INDEX_SAMPLES):
        null_like = sc.DataMatrix(scale * rng.standard_normal((x.d, x.n)))
        tr.call("cluster.null_index", sc.two_means_ci, null_like,
                restarts=config.restarts_null, seed=int(rng.integers(2**63)))
    for a in ARMS:
        if not tr.durations(f"engine.simulate_null_cis.{a}"):
            tr.call(f"engine.simulate_null_cis.{a}", sc.simulate_null_cis, arms[a], x.n, config)
    if wl.kind == "spectrum":
        reports = tr.call("engine.run_tests", sc.run_tests, x, config, wl.methods)
    if not tr.durations("io.emit_report"):
        manifest = sc.RunManifest(input_path="probe", method=wl.method, n_sim=wl.n_sim,
                                  seed=seed, out_dir=str(work / "probe-report"))
        tr.call("io.emit_report", sc.emit_report, reports[wl.method], manifest)
    if not tr.durations("harness.generate_scenario_sample"):
        spec = sc.ScenarioSpec(d=wl.d, n=wl.n, v=max(wl.v, 1.0), w=wl.w, reps=1,
                               n_sim=wl.n_sim, master_seed=seed)
        tr.call("harness.generate_scenario_sample", sc.generate_scenario_sample, spec, 0)


def layer_metrics(tr, wl, untraced_wall: float, csv_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced command's spans, falling back to
    the probes' spans for calls the command did not make."""
    def first(name):  # the first span called ``name``: the command's if it made one
        return tr.durations(name)[0]

    med = tr.median
    root = tr.root("traced")
    traced_wall = root["end"] - root["start"]
    null_ms = {a: first(f"engine.simulate_null_cis.{a}") / wl.n_sim * 1e3 for a in ARMS}
    null_index_ms = med("cluster.null_index") * 1e3
    distinct = ARMS if wl.kind == "grid" else \
        ("hard", "soft") if wl.method == "combined" else (wl.method,)
    needed = first("cluster.observed_two_means") + sum(
        first(f"engine.simulate_null_cis.{a}") for a in distinct)
    modules = tr.module_self_times("traced")
    if wl.kind == "test":  # the untraced command is run_test plus parse, report and glue
        run_tests_s = untraced_wall - modules["io"] - modules["cli"]
    else:
        run_tests_s = first("engine.run_tests")
    load = first("io.load_matrix")
    return {
        "io.load_matrix_s": (load, "s"),
        "io.parse_mb_per_s": (csv_bytes / load / 1e6, "MB/s"),
        "io.emit_report_s": (first("io.emit_report"), "s"),
        "linalg.sample_spectrum_s": (first("linalg.sample_spectrum"), "s"),
        "spectrum.estimate_noise_s": (first("spectrum.estimate_noise"), "s"),
        "spectrum.hard_threshold_s": (first("spectrum.hard_threshold"), "s"),
        "spectrum.soft_threshold_s": (first("spectrum.soft_threshold"), "s"),
        "cluster.observed_two_means_s": (first("cluster.observed_two_means"), "s"),
        "cluster.null_index_ms": (null_index_ms, "ms"),
        **{f"engine.null_ms_per_rep.{a}": (null_ms[a], "ms") for a in ARMS},
        "engine.null_nonlloyd_ms_per_rep": (null_ms["hard"] - null_index_ms, "ms"),
        "engine.arm_redundancy": (run_tests_s / needed, "ratio"),
        "harness.scenario_sample_s": (med("harness.generate_scenario_sample"), "s"),
        "harness.parallel_efficiency": (traced_wall / (wl.workers * untraced_wall), "ratio"),
        "cli.self_s": (modules["cli"], "s"),
        "trace_overhead_ratio": (traced_wall / untraced_wall, "ratio"),
    }


def median_wall(ops: list[OpResult]) -> float:
    return statistics.median(op.wall for op in ops)
