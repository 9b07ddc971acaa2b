import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import sigclust
from sigclust import errors
from sigclust.cli import (
    EXIT_BROKEN_PIPE, EXIT_INTERRUPTED, EXIT_IO, EXIT_OK, EXIT_OTHER, _spectrum_table, main,
)
from sigclust.errors import DegenerateDataError, InvalidConfigError, InvalidDataError, ParseError


@pytest.fixture
def matrix_file(tmp_path):
    rng = np.random.default_rng(21)
    values = rng.normal(size=(30, 15))
    path = tmp_path / "data.csv"
    path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in values) + "\n"
    )
    return path


def test_test_subcommand_runs(matrix_file, tmp_path, capsys):
    out = tmp_path / "out"
    code = main([
        "test", str(matrix_file), "--method", "hard", "--nsim", "100",
        "--seed", "7", "--out", str(out),
    ])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert "p-value (empirical)" in stdout
    payload = json.loads((out / "report.json").read_text())
    assert payload["method"] == "hard"
    assert payload["seed"] == 7
    assert len(payload["null_cis"]) == 100
    assert (out / "null_cis.csv").exists()
    assert (out / "null_ci_ecdf.csv").exists()


def test_pvalues_printed_with_six_significant_digits(tmp_path, capsys):
    # Two distant blobs give the floor p-value 1/101 = 0.00990099...,
    # which needs all six significant digits to render.
    rng = np.random.default_rng(8)
    values = np.hstack([rng.normal(size=(3, 8)), rng.normal(size=(3, 8)) + 50.0])
    path = tmp_path / "blobs.csv"
    path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in values) + "\n"
    )
    code = main(["test", str(path), "--method", "hard", "--nsim", "100", "--seed", "3"])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    line = next(l for l in stdout.splitlines() if "empirical" in l)
    assert "0.00990099" in line


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3,oops\n")
    assert main(["test", str(bad), "--nsim", "100"]) == ParseError.exit_code


def test_exit_code_invalid_data(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\nnan,4\n")
    assert main(["test", str(bad), "--nsim", "100"]) == InvalidDataError.exit_code


def test_exit_code_degenerate(tmp_path, capsys):
    const = tmp_path / "const.csv"
    const.write_text("1,1,1\n1,1,1\n")
    argv = ["test", str(const), "--method", "hard", "--nsim", "100"]
    assert main(argv) == DegenerateDataError.exit_code


def test_exit_code_missing_file(tmp_path, capsys):
    assert main(["test", str(tmp_path / "nope.csv"), "--nsim", "100"]) == EXIT_IO


@pytest.mark.parametrize("failure", [
    np.linalg.LinAlgError("SVD did not converge"), MemoryError(),
])
def test_exit_code_linalg_and_memory_failures(matrix_file, capsys, monkeypatch, failure):
    def fail(x, gram):
        raise failure

    monkeypatch.setattr("sigclust.engine._sample_spectrum", fail)
    assert main(["test", str(matrix_file), "--nsim", "100", "--seed", "1"]) == EXIT_OTHER
    err = capsys.readouterr().err
    assert err.startswith(f"error: {type(failure).__name__}")
    assert "Traceback" not in err


def test_other_library_error_is_exit_7(matrix_file, capsys, monkeypatch):
    def fail(x, config):
        raise errors.NoTraceSolutionError("synthetic: no trace solution")

    monkeypatch.setattr("sigclust.cli.run_test", fail)
    assert main(["test", str(matrix_file), "--nsim", "100", "--seed", "1"]) == EXIT_OTHER
    captured = capsys.readouterr()
    assert captured.err == "error: synthetic: no trace solution\n"
    assert captured.out == ""


# The exit status of every library error type, written out: a new type in
# sigclust.errors fails the test below until it is given a row here.
_EXIT_STATUS = {
    "SigClustError": 7,
    "ParseError": 2,
    "InvalidDataError": 3,
    "InvalidLabelsError": 3,
    "InvalidSpectraError": 3,
    "DegenerateDataError": 4,
    "DegenerateNoiseError": 4,
    "InvalidConfigError": 6,
    "NoTraceSolutionError": 7,
}
_ERROR_TYPES = [
    t for t in vars(errors).values() if isinstance(t, type) and issubclass(t, errors.SigClustError)
]


@pytest.mark.parametrize("error_type", _ERROR_TYPES, ids=lambda t: t.__name__)
def test_each_error_type_exits_with_its_status(matrix_file, capsys, monkeypatch, error_type):
    assert error_type.__name__ in _EXIT_STATUS, f"no exit status listed for {error_type.__name__}"
    status = _EXIT_STATUS[error_type.__name__]
    assert error_type.exit_code == status

    def fail(x, config):
        raise error_type("synthetic failure")

    monkeypatch.setattr("sigclust.cli.run_test", fail)
    assert main(["test", str(matrix_file), "--nsim", "100", "--seed", "1"]) == status
    captured = capsys.readouterr()
    assert captured.err == "error: synthetic failure\n"
    assert captured.out == ""


def test_exit_code_bad_config(matrix_file, capsys):
    for argv in (["--nsim", "50"], ["--method", "true", "--nsim", "100"]):
        assert main(["test", str(matrix_file), *argv]) == InvalidConfigError.exit_code


@pytest.mark.parametrize("flags", [
    ["--nsim", "5"], ["--workers", "0"], ["--restarts-null", "0"], ["--restarts-observed", "0"],
    ["--seed", "-1"], ["--method", "true"],
    ["--method", "hard", "--true-eigenvalues", "spec.txt"],
    ["--method", "hard", "--true-eigenvalues", "missing.txt"],
], ids=["nsim", "workers", "restarts-null", "restarts-observed", "seed", "true-without-file",
        "hard-with-file", "hard-with-missing-file"])
def test_test_flags_are_checked_before_the_matrix_is_read(matrix_file, capsys, monkeypatch, flags):
    monkeypatch.chdir(matrix_file.parent)
    Path("spec.txt").write_text("1.0\n" * 30)  # fits the matrix's d
    monkeypatch.setattr("sigclust.cli.load_matrix", lambda *a, **k: pytest.fail("matrix read"))
    assert main(["test", str(matrix_file)] + flags) == InvalidConfigError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("option,lines,extra", [
    ("--labels", ["1", "2"] * 7, []),  # 14 labels for 15 observations
    ("--labels", ["1"] * 15, []),  # every observation in one cluster
    ("--true-eigenvalues", ["1.0"] * 29, ["--method", "true"]),  # d is 30
], ids=["label-count", "one-cluster", "eigenvalue-length"])
def test_inputs_that_do_not_fit_the_matrix_are_invalid_data(
    matrix_file, tmp_path, capsys, option, lines, extra
):
    side = tmp_path / "side.txt"
    side.write_text("\n".join(lines) + "\n")
    argv = ["test", str(matrix_file), "--nsim", "100", "--seed", "1", option, str(side)]
    assert main(argv + extra) == InvalidDataError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")


def test_known_labels_mode(matrix_file, tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    labels.write_text("\n".join(["1", "2"] * 7 + ["1"]) + "\n")
    code = main(["test", str(matrix_file), "--method", "sample", "--nsim", "100",
                 "--seed", "1", "--labels", str(labels)])
    assert code == EXIT_OK
    assert "known-labels" in capsys.readouterr().out


def test_true_method_with_spectrum_file(matrix_file, tmp_path, capsys):
    spec = tmp_path / "true.txt"
    spec.write_text("\n".join(["1.0"] * 30) + "\n")
    code = main(["test", str(matrix_file), "--method", "true", "--nsim", "100",
                 "--seed", "1", "--true-eigenvalues", str(spec)])
    assert code == EXIT_OK


def test_report_echoes_every_input_setting(tmp_path):
    # A file with a header and row names, read with both pinned, under the
    # true spectrum: the report's config must name all three settings.
    values = np.random.default_rng(22).normal(size=(12, 10))
    path = tmp_path / "named.csv"
    path.write_text("\n".join(
        ["gene," + ",".join(f"s{j}" for j in range(10))]
        + [f"g{i}," + ",".join(map(repr, map(float, row))) for i, row in enumerate(values)]
    ) + "\n")
    spec = tmp_path / "true.txt"
    spec.write_text("\n".join(["1.0"] * 12) + "\n")
    out = tmp_path / "out"
    code = main(["test", str(path), "--header", "yes", "--row-names", "yes",
                 "--method", "true", "--true-eigenvalues", str(spec), "--nsim", "100",
                 "--seed", "2", "--out", str(out)])
    assert code == EXIT_OK
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["header"] == "yes"
    assert config["row_names"] == "yes"
    assert config["true_eigenvalues_path"] == str(spec)
    assert config["method"] == "true"


def test_filter_top_k(matrix_file, capsys):
    code = main(["test", str(matrix_file), "--method", "sample", "--nsim", "100",
                 "--seed", "1", "--filter-top-k", "10"])
    assert code == EXIT_OK
    assert "d=10" in capsys.readouterr().out


def test_spectrum_subcommand(matrix_file, capsys):
    assert main(["spectrum", str(matrix_file)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert "sigma_n_sq" in stdout
    assert "index,sample,hard,soft" in stdout
    data_lines = stdout.splitlines()[stdout.splitlines().index("index,sample,hard,soft") + 1:]
    assert len(data_lines) == 30


def test_spectrum_out_writes_csv(matrix_file, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["spectrum", str(matrix_file), "--out", str(out)]) == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.endswith(f"wrote: {out / 'spectrum.csv'}\n")
    assert "index,sample,hard,soft" not in stdout
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "index,sample,hard,soft"
    assert len(lines) == 31


def test_spectrum_table_formats_like_numpy_scalars():
    values = np.array([0.0, 5e-324, 1e300, np.nextafter(1.0, 0.0)])
    columns = [values, values[::-1], -values]
    want = ["index,sample,hard,soft"] + [
        ",".join([str(k + 1)] + [format(np.float64(c[k]), ".9g") for c in columns])
        for k in range(values.size)
    ]
    assert _spectrum_table(columns) == want


def test_tci_subcommand(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("100\n" + "\n".join(["1"] * 999) + "\n")
    assert main(["tci", str(spec)]) == EXIT_OK
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(1.0 - (2.0 / np.pi) * (100.0 / 1099.0), rel=1e-8)


def test_tci_takes_the_sample_column_of_a_wide_matrix(tmp_path, capsys):
    # d > n: the sample spectrum pads its d - n + 1 null directions with zeros.
    path = _write_matrix(tmp_path / "wide.csv", np.random.default_rng(1).normal(size=(40, 12)))
    out = tmp_path / "sp"
    assert main(["spectrum", str(path), "--out", str(out)]) == EXIT_OK
    column = [row.split(",")[1] for row in (out / "spectrum.csv").read_text().splitlines()[1:]]
    sample = [float(v) for v in column]
    assert sample.count(0.0) == 40 - 12 + 1
    spec = tmp_path / "sample.txt"
    spec.write_text("\n".join(column) + "\n")
    capsys.readouterr()
    assert main(["tci", str(spec)]) == EXIT_OK
    value = float(capsys.readouterr().out)
    assert value == pytest.approx(1.0 - (2.0 / np.pi) * max(sample) / sum(sample), rel=1e-8)


def test_tci_without_eigenvalues_is_a_parse_error(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("# no values\n\n")
    assert main(["tci", str(spec)]) == ParseError.exit_code
    assert capsys.readouterr().err == f"error: {spec}: no eigenvalues found\n"


def _module_env():
    """Environment in which a child ``python -m`` imports this sigclust."""
    src = str(Path(sigclust.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_module_entry_point_runs_a_command(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("100\n" + "\n".join(["1"] * 999) + "\n")
    proc = subprocess.run(
        [sys.executable, "-m", "sigclust.cli", "tci", str(spec)],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    assert proc.returncode == EXIT_OK
    assert float(proc.stdout) == pytest.approx(1.0 - (2.0 / np.pi) * (100.0 / 1099.0), rel=1e-8)


def test_package_runs_as_a_module(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("4\n1\n1\n1\n")
    for argv in (["--version"], ["tci", str(spec)]):
        proc = subprocess.run(
            [sys.executable, "-m", "sigclust", *argv],
            capture_output=True, text=True, env=_module_env(), timeout=120,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
    assert float(proc.stdout) == pytest.approx(1.0 - (2.0 / np.pi) * (4.0 / 7.0), rel=1e-8)


def test_simulate_subcommand(tmp_path, capsys):
    scenario = tmp_path / "scenario.csv"
    scenario.write_text("v,w,d,n,a,mode,reps,n_sim\n5,1,10,10,0,none,2,100\n")
    out = tmp_path / "out"
    code = main(["simulate", "--scenario", str(scenario), "--methods", "sample,hard",
                 "--seed", "5", "--out", str(out)])
    assert code == EXIT_OK
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("v,w,d,n,a,mode,reps,n_sim")
    assert "sample_mean" in summary[0]
    payload = json.loads((out / "summary.json").read_text())
    assert len(payload["cells"]) == 2


def test_simulate_to_stdout(tmp_path, capsys):
    scenario = tmp_path / "scenario.csv"
    scenario.write_text("v,w,d,n,a,mode,reps,n_sim\n1,0,6,8,0,none,2,100\n")
    code = main(["simulate", "--scenario", str(scenario), "--methods", "sample",
                 "--seed", "5"])
    assert code == EXIT_OK
    stdout = capsys.readouterr().out
    assert stdout.startswith("v,w,d,n,a,mode,reps,n_sim")


def test_simulate_stdout_is_the_summary_csv(tmp_path):
    # Both tables go through one CSV writer: the stdout bytes, line ends
    # included, are those of summary.csv.
    scenario = tmp_path / "scenario.csv"
    scenario.write_text("v,w,d,n,a,mode,reps,n_sim\n5,1,10,10,0,none,2,100\n")
    argv = ["simulate", "--scenario", str(scenario), "--methods", "sample,hard", "--seed", "5"]
    proc = subprocess.run([sys.executable, "-m", "sigclust", *argv],
                          capture_output=True, env=_module_env(), timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_OK
    assert proc.stdout == (tmp_path / "out" / "summary.csv").read_bytes()


def test_simulate_with_two_workers_leaves_no_process(tmp_path, capsys):
    scenario = tmp_path / "scenario.csv"
    scenario.write_text("v,w,d,n,a,mode,reps,n_sim\n5,1,10,10,0,none,2,100\n1,0,10,10,0,none,2,100\n")
    argv = ["simulate", "--scenario", str(scenario), "--methods", "sample,hard", "--seed", "5"]
    assert main(argv + ["--workers", "1"]) == EXIT_OK
    serial = capsys.readouterr().out
    assert main(argv + ["--workers", "2"]) == EXIT_OK
    assert capsys.readouterr().out == serial
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("n_sim,workers,message", [
    ("100", "0", "error: --workers: workers must be >= 1"),
    ("99", "1", "error: {scenario}: line 2: n_sim must be >= 100, got 99"),
], ids=["100-0-error: workers must be >= 1", "99-1-error: n_sim must be >= 100, got 99"])
def test_bad_grid_settings_are_bad_config(tmp_path, capsys, monkeypatch, n_sim, workers, message):
    monkeypatch.setattr("sigclust.harness._prelude", lambda *a: pytest.fail("a rep ran"))
    scenario = tmp_path / "scenario.csv"
    scenario.write_text(f"v,w,d,n,a,mode,reps,n_sim\n1,0,6,8,0,none,2,{n_sim}\n")
    argv = ["simulate", "--scenario", str(scenario), "--seed", "5", "--workers", workers]
    assert main(argv) == InvalidConfigError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message.format(scenario=scenario)]


@pytest.mark.parametrize("text,argv,code,message", [
    ("v,w,d,n,a,mode,reps,n_sim\n1,0,6,8,0,none,2,100\n", ["--seed", "-1"],
     InvalidConfigError.exit_code,
     "error: --seed: master_seed must be >= 0, got -1"),
    ("v,w,d,n\n1,0,6,8\n", ["--seed", "5"], ParseError.exit_code,
     "error: {scenario}: scenario file is missing columns ['a', 'mode', 'reps', 'n_sim']"),
    ("v,w,d,n,a,mode,reps,n_sim\n", ["--seed", "5"], ParseError.exit_code,
     "error: {scenario}: scenario file has no data rows"),
], ids=["negative-seed", "missing-columns", "no-rows"])
def test_scenario_file_and_seed_errors(tmp_path, capsys, monkeypatch, text, argv, code, message):
    monkeypatch.setattr("sigclust.harness._prelude", lambda *a: pytest.fail("a rep ran"))
    scenario = tmp_path / "scenario.csv"
    scenario.write_text(text)
    assert main(["simulate", "--scenario", str(scenario)] + argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message.format(scenario=scenario)]


@pytest.mark.parametrize("row,code,message", [
    ("1,7,6,8,0,none,2,100", InvalidConfigError.exit_code, "need 0 <= w <= d, got w=7, d=6"),
    ("1,0,6,8,0,sideways,2,100", InvalidConfigError.exit_code, "signal_mode must be one of"),
    ("1,x,6,8,0,none,2,100", ParseError.exit_code, "bad scenario row: invalid literal"),
    ("1,0,6,1,0,none,2,100", InvalidConfigError.exit_code, "need d >= 1 and n >= 2, got d=6, n=1"),
    ("1,0,6,8,0", ParseError.exit_code, "bad scenario row: expected 8 cells, got 5"),
], ids=["w-above-d", "bad-mode", "not-a-number", "one-observation", "short-row"])
def test_rejected_scenario_row_names_its_line(tmp_path, capsys, monkeypatch, row, code, message):
    monkeypatch.setattr("sigclust.harness._prelude", lambda *a: pytest.fail("a rep ran"))
    scenario = tmp_path / "scenario.csv"
    scenario.write_text(f"v,w,d,n,a,mode,reps,n_sim\n1,0,6,8,0,none,2,100\n{row}\n")
    assert main(["simulate", "--scenario", str(scenario), "--seed", "5"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: {scenario}: line 3: {message}")


@pytest.mark.parametrize("methods,message", [
    ("", "at least one method is required"),
    ("hard,bogus", "unknown method 'bogus'"),
    ("hard,hard", "method 'hard' is listed twice"),
], ids=["empty", "unknown", "duplicate"])
def test_bad_methods_list_is_bad_config(tmp_path, capsys, monkeypatch, methods, message):
    monkeypatch.setattr("sigclust.harness._prelude", lambda *a: pytest.fail("a rep ran"))
    scenario = tmp_path / "scenario.csv"
    scenario.write_text("v,w,d,n,a,mode,reps,n_sim\n1,0,6,8,0,none,2,100\n")
    argv = ["simulate", "--scenario", str(scenario), "--methods", methods, "--seed", "5"]
    assert main(argv) == InvalidConfigError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith(f"error: --methods: {message}")
    assert str(scenario) not in line


@pytest.mark.parametrize("sep", [" ", "\t", ";"], ids=["space", "tab", "semicolon"])
def test_non_comma_matrix_file_is_a_parse_error(tmp_path, capsys, sep):
    path = tmp_path / "ws.txt"
    path.write_text("".join(sep.join(f"{v:.3f}" for v in row) + "\n"
                            for row in np.random.default_rng(9).normal(size=(5, 4))))
    assert main(["spectrum", str(path)]) == ParseError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: {path}: row 1 is one cell with a space, tab or ';' in it; "
        "sigclust reads comma-separated files"
    ]


@pytest.mark.parametrize("name, data, argv, line, offset", [
    ("latin.csv", b"g\xe8ne,s1\ng1,1\ng2,2\n", ["spectrum"], 1, 1),
    ("labels.txt", b"1\n2\n\xff\n", ["test", "data.csv", "--labels"], 3, 4),
    ("spec.txt", b"4\n1\xe8\n", ["tci"], 2, 3),
    ("scenario.csv", b"v,w,d,n,a,mode,reps,n_sim\n1,0,6,8,0,none,2,10\xe80\n",
     ["simulate", "--scenario"], 2, 45),
], ids=["matrix", "labels", "eigenvalues", "scenario"])
def test_undecodable_file_is_a_parse_error(matrix_file, capsys, monkeypatch,
                                           name, data, argv, line, offset):
    monkeypatch.chdir(matrix_file.parent)
    Path(name).write_bytes(data)
    with open(name) as fh:
        encoding = fh.encoding
    try:
        data.decode(encoding)
    except UnicodeDecodeError:
        pass
    else:
        pytest.skip(f"the locale's encoding {encoding} decodes every byte")
    assert main([*argv, name]) == ParseError.exit_code
    assert capsys.readouterr().err.splitlines() == [
        f"error: {name}: line {line}: byte {offset} is not valid {encoding} text"
    ]


def test_one_column_file_loads_as_one_variable(tmp_path, capsys):
    path = tmp_path / "col.csv"
    values = np.random.default_rng(10).normal(size=12)
    path.write_text("".join(f"{float(v)!r}\n" for v in values))
    assert main(["spectrum", str(path), "--observations-in-rows"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("d=1 n=12\n")


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from sigclust import *", namespace)
    assert set(sigclust.__all__) <= namespace.keys()
    assert len(set(sigclust.__all__)) == len(sigclust.__all__)


def test_runtime_imports_no_scipy():
    code = (
        "import sigclust, sigclust.cli, sys; "
        "print('\\n'.join(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_worker_count_reports_identical(matrix_file, tmp_path):
    # Same seed and output path, 1 vs 8 workers: byte-identical JSON apart
    # from the timing field (the second run overwrites the first).
    import re

    out = tmp_path / "out"
    texts = []
    for workers in ("1", "8"):
        code = main(["test", str(matrix_file), "--method", "combined",
                     "--nsim", "100", "--seed", "11", "--workers", workers,
                     "--out", str(out)])
        assert code == EXIT_OK
        texts.append((out / "report.json").read_text())
    strip = [re.sub(r'"timing_seconds": [^\n]+', '"timing_seconds": X', t) for t in texts]
    assert strip[0] == strip[1]


def test_negative_seed_is_bad_config(matrix_file, capsys):
    for argv in (["test", str(matrix_file), "--seed", "-1", "--nsim", "100"],
                 ["simulate", "--seed", "-5"]):
        assert main(argv) == InvalidConfigError.exit_code
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


def _write_matrix(path, values):
    path.write_text(
        "\n".join(",".join(repr(float(v)) for v in row) for row in values) + "\n"
    )
    return path


def test_two_observations_combined(tmp_path, capsys):
    path = _write_matrix(tmp_path / "n2.csv", np.random.default_rng(5).normal(size=(6, 2)))
    code = main(["test", str(path), "--method", "combined", "--nsim", "100", "--seed", "1"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "d=6 n=2" in captured.out
    # Every index is exactly 0 at n = 2: the observed one ties the whole null.
    assert "p-value (empirical):  1\n" in captured.out
    assert "p-value (gaussian):   0.5\n" in captured.out
    assert "null mean / sd:       0 / 0\n" in captured.out
    assert any(
        line.startswith("warning: ") and "cannot reject" in line
        for line in captured.err.splitlines()
    )


def test_one_variable_hard(tmp_path, capsys):
    path = _write_matrix(tmp_path / "d1.csv", np.random.default_rng(6).normal(size=(1, 12)))
    code = main(["test", str(path), "--method", "hard", "--nsim", "100", "--seed", "1"])
    assert code == EXIT_OK
    assert "d=1 n=12" in capsys.readouterr().out


def test_soft_flat_fallback_warns_on_stderr(tmp_path, capsys):
    # Rows nearly constant but far apart: no soft offset matches the trace.
    rng = np.random.default_rng(17)
    values = np.arange(10.0)[:, None] * 30.0 + 1e-3 * rng.normal(size=(10, 8))
    path = _write_matrix(tmp_path / "flat.csv", values)
    code = main(["test", str(path), "--method", "soft", "--nsim", "100", "--seed", "1"])
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert any(
        line.startswith("warning: ") and "flat spectrum" in line
        for line in err.splitlines()
    )


def test_load_matrix_warnings_are_warning_lines(tmp_path, capsys):
    rng = np.random.default_rng(8)
    rows = [",".join(["gene"] + [f"s{j}" for j in range(10)])]
    rows += [",".join([f"g{i}"] + [repr(float(v)) for v in rng.normal(size=10)])
             for i in range(6)]
    path = tmp_path / "named.csv"
    path.write_text("\n".join(rows) + "\n")
    code = main(["test", str(path), "--method", "hard", "--nsim", "100", "--seed", "1"])
    assert code == EXIT_OK
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"warning: {path}: treating the first row as a header",
        f"warning: {path}: treating the first column as row names",
    ]
    assert "UserWarning" not in err


def test_warnings_as_errors_still_print_warning_lines(tmp_path):
    # Interpreters run with -W error (or PYTHONWARNINGS=error) must not turn
    # the loader's warnings into tracebacks.
    values = np.random.default_rng(8).normal(size=(20, 10))
    values[0, :5] += 6.0  # a spike, so the soft estimate needs no fallback warning
    rows = [",".join(["gene"] + [f"s{j}" for j in range(10)])]
    rows += [",".join([f"g{i}"] + [repr(float(v)) for v in row]) for i, row in enumerate(values)]
    path = tmp_path / "named.csv"
    path.write_text("\n".join(rows) + "\n")
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "sigclust.cli", "spectrum", str(path)],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stderr.splitlines() == [
        f"warning: {path}: treating the first row as a header",
        f"warning: {path}: treating the first column as row names",
    ]
    assert "Traceback" not in proc.stderr


def test_closed_stdout_exits_141_quietly(tmp_path):
    # 5000 spectrum lines are more than a pipe holds, so the writer meets
    # the closed pipe after its reader has gone.
    values = np.random.default_rng(4).normal(size=(5000, 6))
    values[0, :3] += 60.0  # a spike, so the soft estimate needs no fallback warning
    path = _write_matrix(tmp_path / "big.csv", values)
    proc = subprocess.Popen(
        [sys.executable, "-m", "sigclust.cli", "spectrum", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    )
    assert proc.stdout.readline() == b"d=5000 n=6\n"
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == EXIT_BROKEN_PIPE
    assert stderr == ""  # no error line, no Traceback, no "Exception ignored"


@pytest.mark.parametrize("failure,code,message", [
    (BrokenProcessPool("a child process terminated abruptly"), EXIT_OTHER,
     "error: a worker process died: a child process terminated abruptly"),
    (KeyboardInterrupt(), EXIT_INTERRUPTED, "error: interrupted"),
])
def test_pool_failure_and_interrupt(matrix_file, capsys, monkeypatch, failure, code, message):
    def fail(spectra, n, config, pool=None):
        raise failure

    monkeypatch.setattr("sigclust.engine._simulate", fail)
    argv = ["test", str(matrix_file), "--nsim", "100", "--seed", "1", "--workers", "2"]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message]
    assert "Traceback" not in captured.err + captured.out


def test_all_tied_columns_are_degenerate(tmp_path, capsys):
    # Every column equal (rows differ): the total sum of squares is zero.
    path = _write_matrix(tmp_path / "tied.csv", np.tile(np.arange(5.0)[:, None], (1, 7)))
    argv = ["test", str(path), "--nsim", "100", "--seed", "1"]
    assert main(argv) == DegenerateDataError.exit_code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("error: total sum of squares is zero")
    assert "Traceback" not in err
