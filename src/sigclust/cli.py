"""Command-line front end.

Subcommands:
  test      run the significance test on a matrix file
  simulate  run a scenario grid file and write summary tables
  spectrum  print the sample, hard, and soft eigenvalues for a matrix
  tci       print the population cluster index for a spectrum file

Exit codes: 0 success; a library error exits with its type's ``exit_code``
(see ``sigclust.errors``): 2 parse error, 3 invalid data, 4 degenerate
data/noise, 6 bad configuration (``test`` takes ``--true-eigenvalues``
with ``--method true`` and only with it), 7 other. Outside the library:
5 I/O error, 7 a linear-algebra failure, running out of memory or a
dead worker process, 130 interrupted, 141 stdout closed by its reader
(as SIGPIPE ends a Unix tool).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np

from . import __version__
from .cluster import theoretical_ci
from .engine import (
    METHODS, TestConfig, check_methods, check_workers, estimate_null_spectra, resolve_seed,
    run_test,
)
from .errors import InvalidConfigError, SigClustError
from .harness import (
    builtin_calibration_grid_path,
    load_scenario_file,
    run_grid,
    summary_rows,
    write_summary_json,
)
from .io import (
    RunManifest,
    _write_csv,
    _write_lines,
    emit_report,
    filter_variables,
    load_eigenvalue_file,
    load_labels,
    load_matrix,
)

EXIT_OK = 0
EXIT_IO = 5
EXIT_OTHER = SigClustError.exit_code
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


def _add_matrix_args(parser):
    parser.add_argument("matrix", help="CSV matrix file")
    parser.add_argument(
        "--observations-in-rows",
        action="store_true",
        help="input rows are observations (the matrix is transposed on load)",
    )
    parser.add_argument(
        "--header",
        choices=("auto", "yes", "no"),
        default="auto",
        help="whether the first row is a header (default: auto-detect)",
    )
    parser.add_argument(
        "--row-names",
        choices=("auto", "yes", "no"),
        default="auto",
        help="whether the first column holds row names (default: auto-detect)",
    )
    parser.add_argument(
        "--filter-top-k",
        type=int,
        default=None,
        metavar="K",
        help="keep only the K rows with the largest sd/mean ratio",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigclust",
        description="Monte Carlo significance testing for 2-means clusters",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run the significance test on a matrix")
    _add_matrix_args(p_test)
    p_test.add_argument("--method", choices=METHODS, default=TestConfig.method)
    p_test.add_argument("--nsim", type=int, default=TestConfig.n_sim,
                        help="null replications")
    p_test.add_argument("--seed", type=int, default=None, help="master seed")
    p_test.add_argument("--labels", default=None, metavar="FILE",
                        help="known-label file: one label (1 or 2) per line")
    p_test.add_argument("--true-eigenvalues", default=None, metavar="FILE",
                        help="spectrum file for --method true")
    p_test.add_argument("--restarts-null", type=int, default=TestConfig.restarts_null)
    p_test.add_argument("--restarts-observed", type=int, default=TestConfig.restarts_observed)
    p_test.add_argument("--workers", type=int, default=1)
    p_test.add_argument("--out", default=None, metavar="DIR",
                        help="write report.json and CSV twins into DIR")
    p_test.set_defaults(func=_cmd_test)

    p_sim = sub.add_parser("simulate", help="run a scenario grid file")
    p_sim.add_argument("--scenario", default=None, metavar="FILE",
                       help="scenario CSV (default: packaged 31-cell grid)")
    p_sim.add_argument("--methods", default=",".join(METHODS),
                       help="comma-separated methods to run")
    p_sim.add_argument("--full-scale", action="store_true",
                       help="run the file's reps/n_sim instead of desk-scale caps")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--out", default=None, metavar="DIR",
                       help="write summary.csv and summary.json into DIR")
    p_sim.set_defaults(func=_cmd_simulate)

    p_spec = sub.add_parser("spectrum", help="print estimated null eigenvalues")
    _add_matrix_args(p_spec)
    p_spec.add_argument("--out", default=None, metavar="DIR",
                        help="write spectrum.csv into DIR")
    p_spec.set_defaults(func=_cmd_spectrum)

    p_tci = sub.add_parser("tci", help="population cluster index of a spectrum")
    p_tci.add_argument("spectrum", help="file with one eigenvalue per line")
    p_tci.set_defaults(func=_cmd_tci)

    return parser


def _load_input(args):
    x = load_matrix(
        args.matrix,
        observations_in_rows=args.observations_in_rows,
        header=args.header,
        row_names=args.row_names,
    )
    if args.filter_top_k is not None:
        x = filter_variables(x, args.filter_top_k)
    return x


def _out_dir(args) -> Path | None:
    """The ``--out`` directory, made now (before any long run), or None
    for stdout."""
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return Path(args.out)
    return None


def _cmd_test(args) -> int:
    if (args.method == "true") != bool(args.true_eigenvalues):
        raise InvalidConfigError(
            "--method true requires --true-eigenvalues FILE, and no other method takes one"
        )
    true_eigs = load_eigenvalue_file(args.true_eigenvalues) if args.true_eigenvalues else None
    config = TestConfig(
        method=args.method,
        n_sim=args.nsim,
        master_seed=args.seed,
        restarts_null=args.restarts_null,
        restarts_observed=args.restarts_observed,
        true_eigenvalues=true_eigs,
        workers=args.workers,
    )
    x = _load_input(args)
    if args.labels:
        config = dataclasses.replace(config, labels=load_labels(args.labels, x.n))
    out_dir = _out_dir(args)
    report = run_test(x, config)

    print(f"method:               {report.method}")
    print(f"matrix:               d={x.d} n={x.n} ({args.matrix})")
    print(f"observed mode:        {report.observed_mode}")
    print(f"cluster index:        {report.ci_observed:.9g}")
    print(f"p-value (empirical):  {report.p_empirical:.6g}")
    print(f"p-value (gaussian):   {report.p_gaussian:.6g}")
    print(f"null mean / sd:       {report.null_mean:.9g} / {report.null_sd:.9g}")
    print(f"seed:                 {report.seed}")
    for w in report.warnings:
        print(f"warning: {w}", file=sys.stderr)
    if out_dir is not None:
        manifest = RunManifest(
            input_path=args.matrix,
            observations_in_rows=args.observations_in_rows,
            method=args.method,
            n_sim=args.nsim,
            seed=report.seed,
            labels_path=args.labels,
            filter_top_k=args.filter_top_k,
            out_dir=args.out,
            header=args.header,
            row_names=args.row_names,
            true_eigenvalues_path=args.true_eigenvalues,
        )
        for path in emit_report(report, manifest):
            print(f"wrote: {path}")
    return EXIT_OK


def _check_flag(flag, check, value):
    """``check(value)``, with an InvalidConfigError prefixed by ``flag``."""
    try:
        return check(value)
    except InvalidConfigError as err:
        raise InvalidConfigError(f"{flag}: {err}") from err


def _cmd_simulate(args) -> int:
    scenario = args.scenario if args.scenario else builtin_calibration_grid_path()
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    _check_flag("--methods", check_methods, methods)
    seed = _check_flag("--seed", resolve_seed, args.seed)
    _check_flag("--workers", check_workers, args.workers)
    specs = load_scenario_file(
        scenario, methods=methods, master_seed=seed, full_scale=args.full_scale
    )
    out_dir = _out_dir(args)
    print(
        f"running {len(specs)} scenario(s) x {len(methods)} method(s), seed {seed}",
        file=sys.stderr,
    )
    grid = run_grid(specs, workers=args.workers)
    _write_csv(sys.stdout if out_dir is None else out_dir / "summary.csv", *summary_rows(grid))
    if out_dir is not None:
        write_summary_json(grid, out_dir / "summary.json")
        print(f"wrote: {out_dir / 'summary.csv'}")
        print(f"wrote: {out_dir / 'summary.json'}")
    return EXIT_OK


def _spectrum_table(columns) -> list[str]:
    """The spectrum CSV's lines. Each column is converted to Python floats
    first: they format to the same bytes as numpy scalars, in less time."""
    rows = zip(*(column.tolist() for column in columns))
    return ["index,sample,hard,soft"] + [
        f"{k},{a:.9g},{b:.9g},{c:.9g}" for k, (a, b, c) in enumerate(rows, 1)
    ]


def _cmd_spectrum(args) -> int:
    x = _load_input(args)
    spectra, warnings = estimate_null_spectra(x, ("sample", "hard", "soft"))
    hard, soft = spectra["hard"], spectra["soft"]
    print(f"d={x.d} n={x.n}")
    print(f"sigma_n_sq: {hard.sigma_n_sq:.9g}")
    print(f"tau:        {'n/a' if soft.tau is None else format(soft.tau, '.9g')}")
    print(f"rank_cap_l: {hard.rank_cap_l}")
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    lines = _spectrum_table([spectra[a].eigenvalues for a in ("sample", "hard", "soft")])
    out_dir = _out_dir(args)
    _write_lines(sys.stdout if out_dir is None else out_dir / "spectrum.csv", lines)
    if out_dir is not None:
        print(f"wrote: {out_dir / 'spectrum.csv'}")
    return EXIT_OK


def _cmd_tci(args) -> int:
    eigenvalues = load_eigenvalue_file(args.spectrum)
    print(f"{theoretical_ci(eigenvalues):.9g}")
    return EXIT_OK


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.simplefilter("default")
        warnings.showwarning = _print_warning
        return _run(args)


def _run(args) -> int:
    try:
        return args.func(args)
    except SigClustError as err:
        status, message = err.exit_code, str(err)
    except BrokenPipeError:
        # No reader is left to tell; devnull keeps the final flush from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except OSError as err:
        status, message = EXIT_IO, str(err)
    except (np.linalg.LinAlgError, MemoryError) as err:
        status, message = EXIT_OTHER, ": ".join(filter(None, (type(err).__name__, str(err))))
    except BrokenProcessPool as err:
        status, message = EXIT_OTHER, f"a worker process died: {err}"
    except KeyboardInterrupt:
        status, message = EXIT_INTERRUPTED, "interrupted"
    print(f"error: {message}", file=sys.stderr)
    return status


def main_entry() -> None:  # console-script entry point
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
