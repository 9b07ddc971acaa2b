"""Benchmark for sigclust.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
``src/``. Each workload is a closed loop with one client: the next
operation starts when the previous one has finished. Inputs are generated
from ``--seed`` and written under ``.bench_work/`` during set-up.

With ``--trace 0`` the operations run untraced and the end-to-end metrics
are printed. With ``--trace 1`` the same loop runs once more for the
untraced reference wall time, then the command is rebuilt from public calls
with a span around each, and every per-layer metric is printed. Every
operation's output is checked; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload
all`` runs every workload in turn, each in its own process. ``--smoke``
shrinks every input to a few dozen rows, for the benchmark's own tests.
"""

import os

# One BLAS thread per process, set before numpy loads; the grid workload's
# two worker processes inherit it, so workers x BLAS threads <= 2 cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from calibration import NOMINAL_S, Calibration  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    cli_argv,
    layer_metrics,
    make_checker,
    make_inputs,
    median_wall,
    run_cli,
    run_probes,
    run_traced,
)

SETUP_REPEATS = 3
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Make this process the reaper of every process started below it, so
    that a helper the measured program leaves behind (a pool's server or
    tracker process, say) is reparented here rather than outliving the run."""
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def child_pids() -> list[int]:
    me, pids = os.getpid(), []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                stat = (entry / "stat").read_text()
            except OSError:
                continue
            if int(stat.rsplit(")", 1)[1].split()[1]) == me:
                pids.append(int(entry.name))
    return pids


def stop_children() -> None:
    """Kill every process still under this one and wait until each has ended.
    Everything the benchmark starts itself has been waited for by now."""
    while True:
        for pid in child_pids():
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


def import_sigclust():
    """Import sigclust from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import sigclust
        import sigclust.cli
    except ImportError as err:
        sys.exit(f"perfbench: cannot import sigclust from {src}: {err}")
    if not Path(sigclust.__file__).resolve().is_relative_to(src.resolve()):
        sys.exit(f"perfbench: sigclust was imported from {sigclust.__file__}, not {src}")
    return sigclust


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(sc, wl, seed) -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "sigclust": sc.__version__,
        "commit": git_commit(),
        "seed": seed,
        "workload": {"name": wl.name, **wl.describe()},
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0  # ru_maxrss is in KiB on Linux


def set_up(sc, wl, seed, work: Path, cal: Calibration):
    """Generate and write the inputs and run one warm-up call on a tiny copy
    of them; repeated, and the median kept. Returns (inputs, seconds)."""
    times = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = make_inputs(wl, seed, work / "inputs")
        tiny = wl.tiny()
        warm_inputs = make_inputs(tiny, seed, work / "warmup")
        warm = run_cli(sc, cli_argv(tiny, warm_inputs, seed, work / "warmup" / f"out{k}"),
                       work / "warmup")
        if warm.code != 0:
            raise RuntimeError(f"warm-up call exited with code {warm.code}")
        times.append(time.perf_counter() - t0)
        cal.sample()
    return inputs, statistics.median(times)


def closed_loop(sc, wl, inputs, seed, seconds: float, work: Path, cal: Calibration):
    """Run operations back to back, with a calibration sample after each;
    start another only if it is expected to end within ``seconds`` of the
    first start. At least one runs."""
    ops = []
    start = time.perf_counter()
    while True:
        out = work / f"op{len(ops)}"
        ops.append(run_cli(sc, cli_argv(wl, inputs, seed, out), out))
        cal.sample()
        if time.perf_counter() - start + median_wall(ops) > seconds:
            return ops


def check_all(check, ops) -> int:
    failed = 0
    for i, op in enumerate(ops):
        if op.code != 0:
            op.problems = [f"exit code {op.code}"]
        else:
            try:
                op.problems = check(op)
            except (OSError, ValueError, KeyError, StopIteration) as err:
                op.problems = [f"output unreadable: {err!r}"]
        if op.problems:
            failed += 1
            for p in op.problems:
                print(f"perfbench: op {i} failed its check: {p}", file=sys.stderr)
    return failed


def run_workload(args) -> dict:
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = wl.tiny()
    cal = Calibration(processes=wl.workers)
    try:
        return measure(args, wl, cal)
    finally:
        cal.close()


def measure(args, wl, cal) -> dict:
    """Set up, run the closed loop (and, traced, the rebuilt command and the
    probes), check every operation and return the result object."""
    t0 = time.perf_counter()
    sc = import_sigclust()
    import_s = time.perf_counter() - t0
    cal.sample()
    work = ROOT / ".bench_work" / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs, inputs_s = set_up(sc, wl, args.seed, work, cal)
    setup_s = import_s + inputs_s

    # A traced run needs only one untraced operation, as the reference wall time.
    seconds = 0.0 if args.trace else args.seconds
    ops = closed_loop(sc, wl, inputs, args.seed, seconds, work / "ops", cal)
    peak = peak_rss_mb()
    wall = median_wall(ops)
    check = make_checker(wl, inputs, args.seed)
    env = environment(sc, wl, args.seed)
    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env))

    if not args.trace:
        failed = check_all(check, ops)
        attempted = len(ops)
        op_wall = wall * cal.scale
        metrics = {"op_wall_s": (op_wall, "s"), "setup_s": (setup_s * cal.scale, "s"),
                   "peak_rss_mb": (peak, "MB")}
        spans = []
        print(f"raw wall: operation {wall:.6f} s (median of {len(ops)}), set-up {setup_s:.6f} s; "
              f"calibration kernel {statistics.median(cal.samples):.6f} s (median of "
              f"{len(cal.samples)}), nominal {NOMINAL_S} s")
        alias = {"test": "test_wall_s", "spectrum": "spectrum_wall_s"}.get(wl.kind)
        if alias:
            print(f"{alias} {op_wall:.6f} s")
        else:
            print(f"grid_tests_per_s {len(wl.cells) / op_wall:.6f} 1/s  "
                  f"({len(wl.cells)} scenario replications per operation)")
    else:
        tr = Tracer()
        traced, state = run_traced(tr, sc, wl, inputs, args.seed, work / "traced")
        all_ops = ops + [traced]
        failed = check_all(check, all_ops)
        attempted = len(all_ops)
        spans = tr.spans
        metrics = {}
        if traced.code == 0:
            run_probes(tr, sc, wl, inputs, args.seed, state, work)
            csv_bytes = (inputs.path if wl.kind != "grid" else work / "probe.csv").stat().st_size
            metrics = layer_metrics(tr, wl, wall, csv_bytes)
            modules = tr.module_self_times("traced")
            print(f"traced operation {traced.wall:.6f} s = sum of module self times "
                  f"{sum(modules.values()):.6f} s; untraced median {wall:.6f} s")
            for mod, t in sorted(modules.items(), key=lambda kv: -kv[1]):
                print(f"  self {mod:<10} {t:.6f} s")

    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"failed_ratio {failed / attempted:.6g} ratio  ({failed}/{attempted})")
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = work.parent / "results"
    results.mkdir(exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(
        {"result": result, "env": env, "op_walls": [op.wall for op in ops],
         "setup_s": setup_s, "calibration": cal.samples, "spans": spans}, indent=1))
    shutil.rmtree(work)  # the inputs run to 51 MB per run; keep only the result
    return result


def run_all(args) -> dict:
    """Every workload in turn, each in a child process of its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv + (["--smoke"] if args.smoke else []),
                               capture_output=True, text=True, timeout=900)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with code {child.returncode}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    return merged


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()
    adopt_orphans()
    try:
        result = run_all(args) if args.workload == "all" else run_workload(args)
    finally:
        stop_children()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
