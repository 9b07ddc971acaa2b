import codecs
import json
import locale
import multiprocessing
import warnings

import numpy as np
import pytest

import sigclust.harness as harness
from sigclust import (
    DegenerateNoiseError,
    InvalidConfigError,
    NullSpectrum,
    ParseError,
    ScenarioSpec,
    engine,
    generate_scenario_sample,
    load_scenario_file,
    run_grid,
    true_null_eigenvalues,
)
from sigclust.harness import (
    builtin_calibration_grid_path,
    summary_rows,
    write_summary_json,
)
from sigclust.io import _write_csv


def _key(spectrum):
    """What makes two arms one simulation: their unit-mean eigenvalues."""
    return engine._unit_mean(spectrum).eigenvalues.tobytes()


def make_spec(**kwargs):
    kwargs.setdefault("d", 20)
    kwargs.setdefault("n", 12)
    kwargs.setdefault("reps", 3)
    kwargs.setdefault("n_sim", 100)
    kwargs.setdefault("methods", ("sample",))
    kwargs.setdefault("master_seed", 777)
    return ScenarioSpec(**kwargs)


class TestScenarioSamples:
    def test_null_sample_is_unit_variance(self):
        spec = make_spec(d=1000, n=100, v=1.0, w=0)
        x = generate_scenario_sample(spec, rep=0)
        assert x.d == 1000 and x.n == 100
        assert 0.97 <= x.values.var() <= 1.03

    def test_first_coordinate_mixture(self):
        spec = make_spec(
            d=50, n=400, v=1.0, w=1, signal_a=20.0, signal_mode="first"
        )
        x = generate_scenario_sample(spec, rep=1)
        first = x.values[0]
        shifted = np.count_nonzero(first > 10.0) / x.n
        assert 0.3 <= shifted <= 0.7  # fair-coin mixture is visibly bimodal
        assert 0.8 <= x.values[1:].var() <= 1.2

    def test_all_coordinates_zero_shift_equals_plain_gaussian(self):
        base = make_spec(d=30, n=40, v=2.0, w=3)
        mixed = make_spec(
            d=30, n=40, v=2.0, w=3, signal_a=0.0, signal_mode="all"
        )
        a = generate_scenario_sample(base, rep=2)
        b = generate_scenario_sample(mixed, rep=2)
        np.testing.assert_array_equal(a.values, b.values)

    def test_deterministic_per_rep(self):
        spec = make_spec(d=10, n=8, v=5.0, w=2)
        a = generate_scenario_sample(spec, rep=4)
        b = generate_scenario_sample(spec, rep=4)
        c = generate_scenario_sample(spec, rep=5)
        np.testing.assert_array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_spike_rows_scaled(self):
        spec = make_spec(d=500, n=200, v=100.0, w=5)
        x = generate_scenario_sample(spec, rep=0)
        spiked = x.values[:5].var()
        rest = x.values[5:].var()
        assert 80.0 <= spiked <= 120.0
        assert 0.9 <= rest <= 1.1

    def test_spec_validation(self):
        with pytest.raises(InvalidConfigError):
            make_spec(signal_mode="none", signal_a=1.0)
        with pytest.raises(InvalidConfigError):
            make_spec(signal_mode="sideways")
        with pytest.raises(InvalidConfigError):
            make_spec(w=30, d=20)
        with pytest.raises(InvalidConfigError):
            make_spec(v=0.5)
        with pytest.raises(InvalidConfigError, match="signal_a must be >= 0"):
            make_spec(signal_mode="first", signal_a=-1.0)
        with pytest.raises(InvalidConfigError, match="reps must be >= 1"):
            make_spec(reps=0)
        with pytest.raises(InvalidConfigError, match="need d >= 1 and n >= 2"):
            make_spec(d=0)
        with pytest.raises(InvalidConfigError, match="need d >= 1 and n >= 2"):
            make_spec(n=1)
        for bad in ({"v": np.nan}, {"v": np.inf}, {"signal_mode": "first", "signal_a": np.nan}):
            with pytest.raises(InvalidConfigError, match="need finite v and signal_a"):
                make_spec(**bad)
        with pytest.raises(InvalidConfigError):
            make_spec(methods=("bogus",))
        with pytest.raises(InvalidConfigError):
            make_spec(methods=("hard", "hard"))
        with pytest.raises(InvalidConfigError):
            make_spec(master_seed=-5)


class TestTrueNullEigenvalues:
    def test_plain_spiked_diagonal(self):
        lam = true_null_eigenvalues(make_spec(d=6, n=4, v=9.0, w=2))
        np.testing.assert_array_equal(lam, [9.0, 9.0, 1.0, 1.0, 1.0, 1.0])

    def test_first_coordinate_bump(self):
        spec = make_spec(d=5, n=4, v=4.0, w=1, signal_a=2.0, signal_mode="first")
        lam = true_null_eigenvalues(spec)
        np.testing.assert_array_equal(lam, [5.0, 1.0, 1.0, 1.0, 1.0])

    def test_all_coordinates_rank_one_update(self):
        spec = make_spec(d=40, n=4, v=10.0, w=1, signal_a=0.8, signal_mode="all")
        lam = true_null_eigenvalues(spec)
        bump = 0.25 * 0.8**2
        dense = np.diag(np.r_[10.0, np.ones(39)]) + bump * np.ones((40, 40))
        oracle = np.sort(np.linalg.eigvalsh(dense))[::-1]
        np.testing.assert_allclose(lam, oracle, rtol=1e-12)
        assert lam.sum() == pytest.approx(10.0 + 39.0 + 40 * bump, rel=1e-12)

    @pytest.mark.parametrize("w,v", [(0, 9.0), (7, 9.0), (60, 9.0), (7, 1.0)])
    def test_all_coordinates_matches_dense_and_stays_flat(self, w, v):
        # The block form agrees with the dense diagonalisation and is
        # exactly flat at its floor, so the null draw keeps min(d, n) rows.
        d, n = 60, 10
        spec = make_spec(d=d, n=n, v=v, w=w, signal_a=0.8, signal_mode="all")
        lam = true_null_eigenvalues(spec)
        dense = np.diag(np.r_[np.full(w, v), np.ones(d - w)]) + 0.16 * np.ones((d, d))
        oracle = np.sort(np.linalg.eigvalsh(dense))[::-1]
        np.testing.assert_allclose(lam, oracle, rtol=0, atol=1e-12 * oracle[0])
        _, _, heads, _ = engine._compact_plan(
            (NullSpectrum(method="true", eigenvalues=lam),), n
        )
        assert heads[0].size <= n


class TestRunGrid:
    def test_counts_and_determinism(self):
        spec = make_spec(d=8, n=10, reps=4, methods=("sample", "hard"))
        grid1 = run_grid([spec])
        grid2 = run_grid([spec])
        assert len(grid1.cells) == 2
        for c1, c2 in zip(grid1.cells, grid2.cells):
            np.testing.assert_array_equal(c1.pvalues, c2.pvalues)
            assert c1.p5_count <= c1.p10_count <= spec.reps
            assert c1.pvalues.shape == (spec.reps,)

    def test_sample_method_conservative_at_moderate_spike(self):
        # Single-cluster data with one moderate spike: the sample method
        # should essentially never reject.
        spec = make_spec(
            d=200, n=50, v=1.0, w=1, reps=25, n_sim=100, methods=("sample",)
        )
        grid = run_grid([spec])
        cell = grid.cells[0]
        assert cell.p5_count <= 2

    def test_rep_failure_becomes_warning(self, monkeypatch):
        import sigclust.harness as hmod
        from sigclust.errors import DegenerateNoiseError

        real = hmod._prelude
        calls = {"count": 0}

        def flaky(x, config, methods):
            calls["count"] += 1
            if calls["count"] == 1:
                raise DegenerateNoiseError("synthetic failure")
            return real(x, config, methods)

        monkeypatch.setattr(hmod, "_prelude", flaky)
        spec = make_spec(d=6, n=8, reps=3)
        grid = run_grid([spec])
        cell = grid.cells[0]
        assert np.isnan(cell.pvalues[0])
        assert not np.any(np.isnan(cell.pvalues[1:]))
        assert any("rep 0" in w for w in cell.warnings)
        assert cell.p5_count <= cell.p10_count <= 3

    def test_report_warning_is_listed_once_per_cell(self, monkeypatch):
        # n = 2: every index is exactly 0, so the null is all zeros without
        # simulating and every p-value is 1.
        monkeypatch.setattr(engine, "_simulate", lambda *a: pytest.fail("n=2 simulated"))
        spec = make_spec(d=6, n=2, reps=2, methods=("sample", "hard"))
        grid = run_grid([spec])
        assert len(grid.cells) == 2
        for cell in grid.cells:
            assert [w.split(":")[0] for w in cell.warnings] == ["rep 0", "rep 1"]
            assert all("cannot reject" in w for w in cell.warnings)
            assert cell.pvalues.tolist() == [1.0, 1.0]

    def test_true_method_uses_scenario_spectrum(self):
        spec = make_spec(d=10, n=12, v=3.0, w=1, reps=2, methods=("true",))
        grid = run_grid([spec])
        assert grid.cells[0].method == "true"
        assert not np.any(np.isnan(grid.cells[0].pvalues))


class TestSharedPool:
    @pytest.fixture
    def pools(self, monkeypatch):
        started = []

        class CountingPool(engine.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(engine, "ProcessPoolExecutor", CountingPool)
        return started

    def test_one_pool_per_grid_and_same_summaries(self, pools):
        specs = [make_spec(d=20, n=12, v=v, w=1, reps=2, methods=("sample", "hard"))
                 for v in (1.0, 9.0)]
        serial = run_grid(specs)
        assert pools == []
        parallel = run_grid(specs, workers=2)
        assert pools == [2]
        assert multiprocessing.active_children() == []
        assert summary_rows(parallel) == summary_rows(serial)
        for a, b in zip(serial.cells, parallel.cells):
            np.testing.assert_array_equal(a.pvalues, b.pvalues)
            assert a.warnings == b.warnings


class TestSharedNull:
    """Cells of one (d, n, n_sim, master_seed) group share each replication's
    null pass, and every cell's results equal those of the cell run alone."""

    @staticmethod
    def specs():
        return [
            make_spec(d=30, n=10, v=9.0, w=1, reps=3, methods=("sample", "hard")),
            make_spec(d=20, n=12, v=4.0, w=2, reps=2, methods=("combined",)),
            # 15 eigenvalues above the floor at n = 10: a wide true arm
            make_spec(d=30, n=10, v=4.0, w=15, reps=2, methods=("true", "soft", "combined")),
            make_spec(d=30, n=10, reps=4, methods=("hard",)),
            make_spec(d=20, n=12, v=25.0, w=1, reps=3, methods=engine.METHODS),
            # the d = 30 shape again, in groups of their own
            make_spec(d=30, n=10, reps=2, n_sim=150, methods=("hard",)),
            make_spec(d=30, n=10, reps=2, master_seed=778, methods=("sample",)),
        ]

    @staticmethod
    def assert_cells_equal(fused, alone):
        assert len(fused) == len(alone)
        for a, b in zip(fused, alone):
            assert (a.spec, a.method) == (b.spec, b.method)
            np.testing.assert_array_equal(a.pvalues, b.pvalues)
            assert a.warnings == b.warnings

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fused_grid_equals_each_cell_alone(self, workers):
        specs = self.specs()
        alone = [c for spec in specs for c in run_grid([spec]).cells]
        self.assert_cells_equal(run_grid(specs, workers=workers).cells, alone)
        assert multiprocessing.active_children() == []

    def test_repeated_spec_equals_the_spec_alone(self):
        spec = self.specs()[0]
        alone = run_grid([spec]).cells
        self.assert_cells_equal(run_grid([spec, spec]).cells, alone + alone)

    def test_failed_prelude_fails_only_its_own_cell(self, monkeypatch):
        specs = self.specs()
        alone = [run_grid([spec]).cells for spec in specs]
        real = harness.generate_scenario_sample

        def flaky(spec, rep):
            if spec is specs[3] and rep == 1:
                raise DegenerateNoiseError("synthetic failure")
            return real(spec, rep)

        monkeypatch.setattr(harness, "generate_scenario_sample", flaky)
        cells = run_grid(specs).cells
        [failed] = [c for c in cells if c.spec is specs[3]]
        expected = alone[3][0].pvalues.copy()
        expected[1] = np.nan
        np.testing.assert_array_equal(failed.pvalues, expected)
        assert failed.warnings == ("rep 1: synthetic failure",)
        self.assert_cells_equal([c for c in cells if c.spec is not specs[3]],
                                [c for i, a in enumerate(alone) if i != 3 for c in a])

    def test_degenerate_null_fails_only_its_own_cell(self, monkeypatch):
        # A zero Gram matrix for the last arm of each d=30 pass (specs[3]'s
        # hard arm) stands in for a null with zero total sum of squares.
        specs = self.specs()[:5]
        alone = [run_grid([spec]).cells for spec in specs]
        real = engine._null_grams

        def zero_last(plan, n, rng, out):
            real(plan, n, rng, out)
            if plan[0] == 30:
                out[-1] = 0.0

        monkeypatch.setattr(engine, "_null_grams", zero_last)
        cells = run_grid(specs).cells
        [failed] = [c for c in cells if c.spec is specs[3]]
        assert np.isnan(failed.pvalues).all()
        assert failed.warnings == tuple(
            f"rep {r}: total sum of squares is zero; no cluster structure" for r in range(4))
        self.assert_cells_equal([c for c in cells if c.spec is not specs[3]],
                                [c for i, a in enumerate(alone) if i != 3 for c in a])

    @staticmethod
    def record_passes(monkeypatch):
        """Per ``_shared_nulls`` call, its preludes and its passes: each
        pass's unit-mean spectrum keys and the bytes of each ``_null_grams``
        ``out`` (in-process calls only)."""
        calls = []
        real_shared, real_simulate, real_grams = (
            harness._shared_nulls, engine._simulate, engine._null_grams)

        def shared(preludes, pool):
            calls.append((preludes, []))
            return real_shared(preludes, pool)

        def simulate(spectra, n, config, pool=None):
            calls[-1][1].append(([_key(s) for s in spectra], []))
            return real_simulate(spectra, n, config, pool)

        def grams(plan, n, rng, out):
            calls[-1][1][-1][1].append(out.nbytes)
            return real_grams(plan, n, rng, out)

        monkeypatch.setattr(harness, "_shared_nulls", shared)
        monkeypatch.setattr(engine, "_simulate", simulate)
        monkeypatch.setattr(engine, "_null_grams", grams)
        return calls

    @staticmethod
    def assert_each_distinct_spectrum_once(preludes, passes):
        simulated = [k for keys, _ in passes for k in keys]
        assert len(simulated) == len(set(simulated))
        assert set(simulated) == {_key(p.spectra[a]) for p in preludes for a in p.arms}

    def test_one_shared_nulls_call_per_group_and_rep(self, monkeypatch):
        # Four n = 10 Gram matrices fit, five do not.
        budget = engine._gram_bytes(10, 4)
        monkeypatch.setattr(engine, "_BLOCK_BYTES", budget)
        calls = self.record_passes(monkeypatch)
        run_grid(self.specs())
        # Groups in order of first appearance; per replication, one call
        # with the preludes of the group's cells that have that rep.
        assert [(p[0].n, p[0].config.n_sim, len(p)) for p, _ in calls] == [
            (10, 100, 3), (10, 100, 3), (10, 100, 2), (10, 100, 1),  # specs 0, 2, 3
            (12, 100, 2), (12, 100, 2), (12, 100, 1),  # specs 1, 4
            (10, 150, 1), (10, 150, 1), (10, 100, 1), (10, 100, 1),  # specs 5, 6
        ]
        assert [[len(keys) for keys, _ in passes] for _, passes in calls] == [
            [2, 4], [2, 4], [3], [1],  # 2 + 3 arms exceed the budget, 3 + 1 fit
            [2, 4], [2, 4], [4],  # 2 + 4 arms at n = 12 exceed it, and 4 alone do
            [1], [1], [1], [1],
        ]
        for preludes, passes in calls:
            self.assert_each_distinct_spectrum_once(preludes, passes)
            n, planned, homes = preludes[0].n, set(), []
            for p in preludes:
                new = {_key(p.spectra[a]) for a in p.arms} - planned
                planned |= new
                # No prelude's new arms are split across passes.
                [home] = {i for i, (keys, _) in enumerate(passes) if new & set(keys)}
                homes.append(home)
            for i, (keys, outs) in enumerate(passes):
                assert outs == [len(keys) * n * n * 4] * preludes[0].config.n_sim
                # Within the budget, unless one prelude's arms alone exceed it.
                assert outs[0] <= budget or homes.count(i) == 1

    def test_calibration_grid_draws_each_replication_once(self, tmp_path, monkeypatch):
        # The benchmark's grid-calib-w2 scenario: three cells of one shape,
        # four arms each, 100 null replications.
        shapes = []
        real = engine._null_grams

        def spy(plan, n, rng, out):
            shapes.append(out.shape)
            return real(plan, n, rng, out)

        monkeypatch.setattr(engine, "_null_grams", spy)
        path = tmp_path / "scenario.csv"
        path.write_text("v,w,d,n,a,mode,reps,n_sim\n1000,1,1000,100,0,none,1,100\n"
                        "40,25,1000,100,0,none,1,100\n1,1,1000,100,0,none,1,100\n")
        grid = run_grid(load_scenario_file(path, master_seed=11))
        # 11 distinct arms, not 12: the (1, 1) cell's soft spectrum falls
        # back to the flat one, which equals its flat true arm.
        assert shapes == [(11, 100, 100)] * 100
        assert not any(np.isnan(c.pvalues).any() for c in grid.cells)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_equal_spectra_are_drawn_once(self, monkeypatch, workers):
        # Two v = 1 cells draw the same data set, so every arm of the second
        # repeats one of the first, and both true arms are flat; the last
        # spec repeats the first.
        specs = [
            make_spec(d=30, n=10, v=1.0, w=0, methods=engine.METHODS),
            make_spec(d=30, n=10, v=9.0, w=1, methods=engine.METHODS),
            make_spec(d=30, n=10, v=1.0, w=3, methods=("true", "hard")),
        ]
        specs.append(specs[0])
        alone = [c for spec in specs for c in run_grid([spec]).cells]
        calls = self.record_passes(monkeypatch)
        self.assert_cells_equal(run_grid(specs, workers=workers).cells, alone)
        assert multiprocessing.active_children() == []
        assert len(calls) == 3
        for preludes, passes in calls:
            self.assert_each_distinct_spectrum_once(preludes, passes)
            # 6 of 14 arms: both soft arms fall back to the flat spectrum of
            # the first cell's true arm, and cells 3 and 4 repeat cell 1.
            assert sum(len(keys) for keys, _ in passes) == 6


class TestPowerCurve:
    def test_rejections_increase_with_signal(self):
        shared = dict(d=30, n=30, v=10.0, w=1, reps=6, n_sim=100,
                      methods=("hard",), master_seed=99, signal_mode="all")
        specs = [
            ScenarioSpec(signal_a=0.0, **shared),
            ScenarioSpec(signal_a=4.0, **shared),
        ]
        by_a = {c.spec.signal_a: c.rejection_rate() for c in run_grid(specs).cells}
        assert len(by_a) == 2
        assert by_a[4.0] >= by_a[0.0]
        assert by_a[4.0] >= 0.5


class TestScenarioFiles:
    def test_builtin_grid_loads(self):
        specs = load_scenario_file(builtin_calibration_grid_path(), master_seed=1)
        assert len(specs) == 31
        assert {(s.v, s.w) for s in specs} >= {(1000.0, 1), (10.0, 100), (1.0, 1)}
        assert all(s.d == 1000 and s.n == 100 for s in specs)
        # desk-scale caps applied by default
        assert all(s.reps == 20 and s.n_sim == 200 for s in specs)

    def test_full_scale_keeps_file_values(self):
        specs = load_scenario_file(builtin_calibration_grid_path(), master_seed=1, full_scale=True)
        assert all(s.reps == 100 and s.n_sim == 1000 for s in specs)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text(
            "v,w,d,n,a,mode,reps,n_sim\n"
            "10,2,50,20,0,none,5,100\n"
            "100,1,50,20,0.6,all,5,100\n"
        )
        specs = load_scenario_file(path, methods=("hard",), master_seed=3)
        assert len(specs) == 2
        assert specs[0].v == 10.0 and specs[0].w == 2
        assert specs[1].signal_mode == "all" and specs[1].signal_a == 0.6
        assert all(s.master_seed == 3 for s in specs)

    @pytest.mark.skipif(
        codecs.lookup(locale.getpreferredencoding(False)).name != "utf-8",
        reason="a byte-order mark is dropped where the locale's encoding is UTF-8")
    def test_byte_order_mark_reads_as_without_it(self, tmp_path):
        text = "v,w,d,n,a,mode,reps,n_sim\n10,2,50,20,0,none,5,100\n"
        plain, marked = tmp_path / "grid.csv", tmp_path / "bom-grid.csv"
        plain.write_text(text)
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert load_scenario_file(marked, master_seed=3) == load_scenario_file(plain, master_seed=3)

    def test_bad_files(self, tmp_path):
        missing = tmp_path / "missing_cols.csv"
        missing.write_text("v,w\n1,1\n")
        with pytest.raises(ParseError, match="missing columns") as exc:
            load_scenario_file(missing)
        assert str(exc.value).startswith(f"{missing}: ")

        bad_row = tmp_path / "bad_row.csv"
        bad_row.write_text("v,w,d,n,a,mode,reps,n_sim\n1,x,50,20,0,none,5,100\n")
        with pytest.raises(ParseError) as exc:
            load_scenario_file(bad_row)
        assert exc.value.line == 2

        empty = tmp_path / "empty.csv"
        empty.write_text("v,w,d,n,a,mode,reps,n_sim\n")
        with pytest.raises(ParseError, match="no data rows") as exc:
            load_scenario_file(empty)
        assert str(exc.value).startswith(f"{empty}: ")

    @pytest.mark.parametrize("row,width", [
        ("1,0,6,8,0", 5), ("1,0,6,8,0,none,2,100,9", 9),
    ], ids=["short", "long"])
    def test_row_of_wrong_width_is_a_parse_error(self, tmp_path, row, width):
        path = tmp_path / "grid.csv"
        path.write_text(f"v,w,d,n,a,mode,reps,n_sim\n{row}\n")
        with pytest.raises(ParseError) as exc:
            load_scenario_file(path, master_seed=1)
        assert exc.value.line == 2
        assert str(exc.value) == f"{path}: line 2: bad scenario row: expected 8 cells, got {width}"

    def test_negative_seed_is_rejected_before_any_row(self, tmp_path):
        path = tmp_path / "grid.csv"
        path.write_text("v,w,d,n,a,mode,reps,n_sim\n1,x,50,20,0,none,5,100\n")
        with pytest.raises(InvalidConfigError) as exc:
            load_scenario_file(path, master_seed=-1)
        assert str(exc.value) == "master_seed must be >= 0, got -1"


class TestSummaries:
    def test_mixed_method_grid_gives_union_header_and_empty_cells(self, tmp_path):
        specs = [make_spec(d=8, n=10, reps=2, methods=("sample", "hard")),
                 make_spec(d=8, n=10, reps=2, v=4.0, w=1, methods=("hard",))]
        grid = run_grid(specs)
        head, rows = summary_rows(grid)
        assert head[8:] == ["sample_mean", "sample_p5", "sample_p10",
                            "hard_mean", "hard_p5", "hard_p10"]
        assert [len(r) for r in rows] == [14, 14]
        assert rows[1][8:11] == ["", "", ""]
        assert all(cell != "" for cell in rows[0] + rows[1][11:])

        csv_path = tmp_path / "summary.csv"
        _write_csv(csv_path, *summary_rows(grid))
        lines = csv_path.read_text().splitlines()
        assert lines[0] == ",".join(head)
        assert lines[2].split(",")[8:11] == ["", "", ""]

    def test_repeated_spec_gives_a_row_per_run(self):
        spec = make_spec(d=6, n=8, reps=2)
        grid = run_grid([spec, spec])
        assert len(grid.cells) == 2
        _, rows = summary_rows(grid)
        assert len(rows) == 2
        assert rows[0] == rows[1]

    def test_fully_failed_cell_writes_null_and_empty_mean(self, tmp_path, monkeypatch):
        def fail(*args):
            raise DegenerateNoiseError("synthetic failure")

        monkeypatch.setattr(harness, "_prelude", fail)
        grid = run_grid([make_spec(d=6, n=8, reps=2)])
        cell = grid.cells[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(cell.mean_p) and np.isnan(cell.rejection_rate())
        assert cell.warnings == ("rep 0: synthetic failure", "rep 1: synthetic failure")

        write_summary_json(grid, tmp_path / "summary.json")
        text = (tmp_path / "summary.json").read_text()
        payload = json.loads(text, parse_constant=lambda c: pytest.fail(f"non-strict {c}"))
        assert payload["cells"][0]["mean_p"] is None
        assert payload["cells"][0]["pvalues"] == [None, None]
        _write_csv(tmp_path / "summary.csv", *summary_rows(grid))
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert lines[1].split(",")[8:] == ["", "0", "0"]

    def test_csv_and_json_outputs(self, tmp_path):
        spec = make_spec(d=8, n=10, reps=3, methods=("sample", "hard"))
        grid = run_grid([spec])

        head, rows = summary_rows(grid)
        assert head[:8] == list(harness.SCENARIO_COLUMNS)
        assert "sample_mean" in head and "hard_p10" in head
        assert len(rows) == 1

        csv_path = tmp_path / "summary.csv"
        _write_csv(csv_path, *summary_rows(grid))
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("v,w,d,n,a,mode,reps,n_sim")

        json_path = tmp_path / "summary.json"
        write_summary_json(grid, json_path)
        payload = json.loads(json_path.read_text())
        assert len(payload["cells"]) == 2
        cell = payload["cells"][0]
        assert cell["method"] == "sample"
        assert len(cell["pvalues"]) == 3
        assert cell["p5_count"] <= cell["p10_count"]
