import math
from dataclasses import fields, replace

import numpy as np
import pytest

import cpfuse.cli
import cpfuse.experiment
from cpfuse.cli import main
from cpfuse.degradation import (
    DegradationConfig,
    band_aggregation_matrix,
    build_operators,
    degrade,
)
from cpfuse.experiment import (
    ExperimentConfig,
    ResultRow,
    SceneConfig,
    emit_results,
    fuse,
    run_experiment,
    simulate_scene,
)
from cpfuse.fileio import read_matrix, read_tensor, write_matrix, write_tensor
from cpfuse.metrics import metrics_report, spatial_smooth
from cpfuse.solver import FusionProblem, SolverConfig, SolverDivergenceError


def small_config(**overrides):
    defaults = dict(
        degradation=DegradationConfig(kernel_size=3, sigma=2.0, factor=2, num_msi_bands=3),
        solver=SolverConfig(max_iters=100),
        scene=SceneConfig(dims=(10, 10, 6), rank=2, seed=0),
        algorithm="nn-nls",
        snrs_db=(math.inf,),
        ranks=(2,),
        replicates=1,
        master_seed=0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestSimulateScene:
    def test_shape_and_nonnegativity(self):
        sri = simulate_scene(SceneConfig(dims=(7, 6, 5), rank=3, seed=1))
        assert sri.shape == (7, 6, 5)
        assert np.all(sri >= 0.0)

    def test_deterministic_per_seed(self):
        cfg = SceneConfig(dims=(5, 5, 4), rank=2, seed=9)
        np.testing.assert_array_equal(simulate_scene(cfg), simulate_scene(cfg))
        other = SceneConfig(dims=(5, 5, 4), rank=2, seed=10)
        assert not np.array_equal(simulate_scene(cfg), simulate_scene(other))

    def test_rank_one_scene_has_rank_one_unfoldings(self):
        sri = simulate_scene(SceneConfig(dims=(6, 5, 4), rank=1, seed=0))
        singulars = np.linalg.svd(sri.reshape(6, -1, order="F"), compute_uv=False)
        assert singulars[1] <= 1e-12 * singulars[0]

    def test_background_is_shared_across_bands(self):
        base_cfg = SceneConfig(dims=(8, 7, 3), rank=2, seed=4)
        bumped_cfg = SceneConfig(dims=(8, 7, 3), rank=2, seed=4, background_amplitude=0.5)
        diff = simulate_scene(bumped_cfg) - simulate_scene(base_cfg)
        for k in (1, 2):
            np.testing.assert_allclose(diff[:, :, k], diff[:, :, 0], rtol=1e-12)
        assert diff.max() > 0.4
        assert np.all(diff >= 0.0)

    def test_excessive_rank_warns(self):
        with pytest.warns(UserWarning):
            simulate_scene(SceneConfig(dims=(4, 4, 3), rank=5, seed=0))

    def test_aviris_scale_scene(self):
        sri = simulate_scene(SceneConfig(dims=(80, 84, 204), rank=30, seed=0))
        assert sri.shape == (80, 84, 204)
        assert np.all(sri >= 0.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dims": (0, 4, 4), "rank": 2},
            {"dims": (4, 4), "rank": 2},
            {"dims": (4, 4, 4), "rank": 0},
            {"dims": (4, 4, 4), "rank": 2, "background_amplitude": -1.0},
        ],
    )
    def test_invalid_config_raises(self, kwargs):
        with pytest.raises(ValueError):
            simulate_scene(SceneConfig(**kwargs))

    def test_negative_seed_raises(self):
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1$"):
            SceneConfig(dims=(4, 4, 4), rank=2, seed=-1)

    @pytest.mark.parametrize("amplitude", [math.nan, math.inf, -1.0])
    def test_background_must_be_finite_and_nonnegative(self, amplitude):
        # ``x < 0`` is false for NaN, so a sign test alone let NaN through.
        with pytest.raises(ValueError, match="^background_amplitude must be finite and "
                                             f"nonnegative, got {amplitude}$"):
            SceneConfig(dims=(4, 4, 4), rank=2, background_amplitude=amplitude)


class TestRunExperiment:
    def test_single_replicate_row(self):
        rows, summary = run_experiment(small_config())
        assert len(rows) == 1 and len(summary) == 1
        row = rows[0]
        assert row.algorithm == "nn-nls"
        assert row.snr_db == math.inf
        assert row.rank == 2
        assert row.replicate == 0
        assert row.converged
        assert row.rsnr_db > 60.0
        assert row.iterations > 0
        assert summary[0].median_rmse == row.rmse

    def test_median_is_middle_order_statistic(self):
        rows, summary = run_experiment(
            small_config(replicates=3, degradation=DegradationConfig(
                kernel_size=3, sigma=2.0, factor=2, num_msi_bands=3), snrs_db=(15.0,))
        )
        assert len(rows) == 3
        values = sorted(r.rmse for r in rows)
        assert summary[0].median_rmse == values[1]
        assert summary[0].replicates == 3

    def test_replicates_differ_through_noise_and_init(self):
        rows, _ = run_experiment(small_config(replicates=2, snrs_db=(10.0,)))
        assert rows[0].rmse != rows[1].rmse

    def test_snr_sweep_median_rsnr_is_nondecreasing(self):
        _, summary = run_experiment(
            small_config(replicates=3, snrs_db=(0.0, 5.0, 10.0))
        )
        medians = [s.median_rsnr_db for s in summary]
        for lower, higher in zip(medians, medians[1:]):
            assert higher >= lower

    def test_rank_sweep_axis(self):
        rows, summary = run_experiment(
            small_config(ranks=(1, 2), replicates=1)
        )
        assert [r.rank for r in rows] == [1, 2]
        assert all(r.snr_db == math.inf for r in rows)
        assert [s.rank for s in summary] == [1, 2]

    def test_loaded_scene_file(self, tmp_path):
        sri = simulate_scene(SceneConfig(dims=(10, 10, 6), rank=2, seed=3))
        path = tmp_path / "scene.dt3"
        write_tensor(path, sri)
        rows, _ = run_experiment(small_config(scene=None, sri_path=str(path)))
        assert rows[0].converged
        assert rows[0].rsnr_db > 60.0

    def test_deterministic_rows(self):
        # wall time is the one nondeterministic column
        cfg = small_config(replicates=2, snrs_db=(20.0,))
        rows_a, _ = run_experiment(cfg)
        rows_b, _ = run_experiment(cfg)
        strip = lambda r: replace(r, wall_time_seconds=0.0)  # noqa: E731
        assert [strip(r) for r in rows_a] == [strip(r) for r in rows_b]

    def test_worker_pool_matches_serial(self):
        serial = small_config(replicates=2, solver=SolverConfig(max_iters=30))
        pooled = small_config(replicates=2, solver=SolverConfig(max_iters=30), workers=2)
        rows_s, _ = run_experiment(serial)
        rows_p, _ = run_experiment(pooled)
        for a, b in zip(rows_s, rows_p):
            assert a.rmse == b.rmse and a.iterations == b.iterations

    def test_solver_divergence_yields_nan_row(self, monkeypatch):
        def explode(*args, **kwargs):
            raise SolverDivergenceError("forced failure")

        monkeypatch.setattr(cpfuse.experiment, "solve", explode)
        rows, summary = run_experiment(small_config())
        assert len(rows) == 1
        assert not rows[0].converged
        assert math.isnan(rows[0].rmse)
        assert math.isnan(summary[0].median_rmse)

    def test_replicate_problem_holds_the_noisy_images(self, monkeypatch):
        # The noisy images arrive column-major, so FusionProblem keeps them
        # instead of copying each one.
        noisy, problems = [], []
        add_pair_noise, fuse = cpfuse.experiment._add_pair_noise, cpfuse.experiment.fuse

        def record_noise(*args):
            noisy.append(add_pair_noise(*args))
            return noisy[-1]

        def record_problem(prob, *args):
            problems.append(prob)
            return fuse(prob, *args)

        monkeypatch.setattr(cpfuse.experiment, "_add_pair_noise", record_noise)
        monkeypatch.setattr(cpfuse.experiment, "fuse", record_problem)
        run_experiment(small_config(snrs_db=(10.0,), solver=SolverConfig(max_iters=2)))
        [(hsi, msi)], [prob] = noisy, problems
        assert np.shares_memory(prob.hsi, hsi)
        assert np.shares_memory(prob.msi, msi)

    def test_fuse_rejects_unknown_algorithm(self):
        ops = build_operators((4, 4, 2), DegradationConfig(kernel_size=1, factor=2, num_msi_bands=1))
        prob = FusionProblem(*degrade(np.ones((4, 4, 2)), ops), ops, rank=1)
        with pytest.raises(ValueError, match="algorithm"):
            fuse(prob, "newton", 0, SolverConfig())

    @pytest.mark.parametrize(
        "overrides",
        [
            {"scene": None},
            {"algorithm": "newton"},
            {"ranks": ()},
            {"snrs_db": ()},
            {"replicates": 0},
            {"workers": 0},
            {"ranks": (0,)},
            # every grid value is checked, not only the first
            {"ranks": (2, 0)},
            {"smooth_window": 0},
            {"snrs_db": (5.0, math.nan)},
            # a fractional or infinite rank, and an SNR that is NaN or -inf
            {"ranks": (2.5,)},
            {"ranks": (math.inf,)},
            {"snrs_db": (math.nan,)},
            {"snrs_db": (-math.inf,)},
            {"master_seed": -1},
        ],
    )
    def test_invalid_config_raises(self, overrides):
        # Rejected when the config is built, before any scene is simulated.
        with pytest.raises(ValueError):
            small_config(**overrides)

    def test_both_scene_sources_raise(self):
        with pytest.raises(ValueError):
            run_experiment(small_config(sri_path="x.dt3"))


# Parsers keyed by the (string) field annotations of ResultRow.
_PARSERS = {"str": str, "int": int, "float": float, "bool": "true".__eq__}


def read_results(path) -> list[ResultRow]:
    """Oracle: parse a results CSV back into rows, the round trip of
    ``emit_results``; a wrong header or a malformed row raises ``ValueError``."""
    columns = fields(ResultRow)
    lines = path.read_text().strip().split("\n")
    if lines[0] != ",".join(f.name for f in columns):
        raise ValueError(f"{path}: unexpected header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(columns):
            raise ValueError(f"{path}: malformed row {line!r}")
        rows.append(ResultRow(*(_PARSERS[f.type](p) for f, p in zip(columns, parts))))
    return rows


class TestResultsCsv:
    def rows(self):
        return [
            ResultRow("nn-nls", math.inf, 3, 0, 0.125, 0.99, 42.5, 0.01, 17, 0.0, True),
            ResultRow("als", 5.0, 3, 1, 0.25, 0.5, -3.0, 0.2, 200, 0.0, False),
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "results.csv"
        emit_results(self.rows(), path)
        assert read_results(path) == self.rows()

    def test_header_and_serialization(self, tmp_path):
        path = tmp_path / "results.csv"
        emit_results(self.rows(), path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "algorithm,snr_db,rank,replicate,rmse,cc,rsnr_db,sam,"
            "iterations,wall_time_seconds,converged"
        )
        assert lines[1].startswith("nn-nls,inf,3,0,0.125,")
        assert lines[1].endswith(",true")
        assert lines[2].endswith(",false")

    def test_zero_rows_gives_header_only(self, tmp_path):
        path = tmp_path / "results.csv"
        emit_results([], path)
        assert path.read_text().count("\n") == 1
        assert read_results(path) == []

    def test_emit_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_results(self.rows(), a)
        emit_results(self.rows(), b)
        assert a.read_bytes() == b.read_bytes()

    def test_nan_serialises_and_parses(self, tmp_path):
        row = ResultRow("nn-nls", 5.0, 3, 0, math.nan, math.nan, math.nan, math.nan, 0, 0.0, False)
        path = tmp_path / "results.csv"
        emit_results([row], path)
        assert ",nan," in path.read_text()
        back = read_results(path)[0]
        assert math.isnan(back.rmse)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(ValueError):
            read_results(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "results.csv"
        emit_results(self.rows(), path)
        path.write_text(path.read_text() + "nn-nls,5.0\n")
        with pytest.raises(ValueError, match="malformed row"):
            read_results(path)


class TestCliPipeline:
    def simulate(self, tmp_path, dims=(12, 12, 8), rank=2):
        sri = tmp_path / "sri.dt3"
        rc = main(
            ["simulate", "--dims", *map(str, dims), "--rank", str(rank),
             "--seed", "0", "--out", str(sri)]
        )
        assert rc == 0
        return sri

    def degrade(self, tmp_path, sri, extra=()):
        args = [
            "degrade", "--sri", str(sri),
            "--out-hsi", str(tmp_path / "hsi.dt3"),
            "--out-msi", str(tmp_path / "msi.dt3"),
            "--kernel-size", "3", "--factor", "2", "--msi-bands", "4",
            "--out-p1", str(tmp_path / "p1.dm2"),
            "--out-p2", str(tmp_path / "p2.dm2"),
            "--out-pm", str(tmp_path / "pm.dm2"),
            *extra,
        ]
        assert main(args) == 0
        return tmp_path / "hsi.dt3", tmp_path / "msi.dt3"

    def test_simulate_writes_scene(self, tmp_path):
        sri = self.simulate(tmp_path)
        t = read_tensor(sri)
        assert t.shape == (12, 12, 8)
        assert np.all(t >= 0.0)

    def test_degrade_shapes_and_operator_dumps(self, tmp_path):
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        assert read_tensor(hsi).shape == (6, 6, 8)
        assert read_tensor(msi).shape == (12, 12, 4)
        assert read_matrix(tmp_path / "p1.dm2").shape == (6, 12)
        assert read_matrix(tmp_path / "pm.dm2").shape == (4, 8)

    def test_degrade_noise_streams_do_not_repeat_across_seeds(self, tmp_path):
        sri = self.simulate(tmp_path)
        noise = {}
        for name, extra in (
            ("clean", []),
            ("seed0", ["--snr-hsi", "10", "--snr-msi", "10", "--seed", "0"]),
            ("seed1", ["--snr-hsi", "10", "--snr-msi", "10", "--seed", "1"]),
        ):
            out = tmp_path / name
            out.mkdir()
            noise[name] = [read_tensor(p) for p in self.degrade(out, sri, extra)]
        hsi_noise_1 = noise["seed1"][0] - noise["clean"][0]
        msi_noise_0 = noise["seed0"][1] - noise["clean"][1]
        # Both draws are C-ordered standard normals, rescaled per image.
        lead = msi_noise_0.ravel()[: hsi_noise_1.size]
        assert abs(np.corrcoef(lead, hsi_noise_1.ravel())[0, 1]) < 0.5

    def test_fuse_recovers_scene(self, tmp_path, capsys):
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        est = tmp_path / "est.dt3"
        rc = main(
            ["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
             "--out", str(est),
             "--p1", str(tmp_path / "p1.dm2"),
             "--p2", str(tmp_path / "p2.dm2"),
             "--pm", str(tmp_path / "pm.dm2")]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged=true" in out
        truth = read_tensor(sri)
        got = read_tensor(est)
        rel = np.linalg.norm(got - truth) / np.linalg.norm(truth)
        assert rel < 1e-4

    def test_fuse_flag_built_operators_match_files(self, tmp_path):
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        from_files = tmp_path / "a.dt3"
        from_flags = tmp_path / "b.dt3"
        main(["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
              "--out", str(from_files),
              "--p1", str(tmp_path / "p1.dm2"), "--p2", str(tmp_path / "p2.dm2"),
              "--pm", str(tmp_path / "pm.dm2")])
        main(["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
              "--out", str(from_flags), "--kernel-size", "3", "--factor", "2"])
        np.testing.assert_array_equal(read_tensor(from_files), read_tensor(from_flags))

    def test_fuse_operator_routes_agree_on_noisy_data(self, tmp_path):
        # A noisy solve that stops on its budget amplifies any rounding
        # difference between the two routes' operators.
        sri = self.simulate(tmp_path, dims=(16, 16, 10), rank=3)
        hsi, msi = self.degrade(tmp_path, sri, ["--snr-hsi", "20", "--snr-msi", "20"])
        common = ["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "3",
                  "--max-iters", "80"]
        from_files = tmp_path / "a.dt3"
        from_flags = tmp_path / "b.dt3"
        assert main([*common, "--out", str(from_files),
                     "--p1", str(tmp_path / "p1.dm2"), "--p2", str(tmp_path / "p2.dm2"),
                     "--pm", str(tmp_path / "pm.dm2")]) == 0
        assert main([*common, "--out", str(from_flags),
                     "--kernel-size", "3", "--factor", "2"]) == 0
        assert from_files.read_bytes() == from_flags.read_bytes()

    def test_fuse_rejects_invalid_spectral_matrix(self, tmp_path, capsys):
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        bad = tmp_path / "bad.dm2"
        write_matrix(bad, np.full((4, 8), 5.0))  # right shape, rows sum to 40
        rc = main(["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
                   "--out", str(tmp_path / "x.dt3"), "--kernel-size", "3",
                   "--factor", "2", "--spectral-matrix", str(bad)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x.dt3").exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("command", ["degrade", "fuse"])
    def test_non_finite_spectral_matrix_is_named(self, tmp_path, capsys, command, bad):
        # Named as non-finite, not blamed on the rows' sums.
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        pm = read_matrix(tmp_path / "pm.dm2")
        pm[0, 0] = bad
        write_matrix(tmp_path / "bad.dm2", pm)
        outputs = [tmp_path / "out-hsi.dt3", tmp_path / "out-msi.dt3"]
        if command == "degrade":
            args = ["degrade", "--sri", str(sri), "--out-hsi", str(outputs[0]),
                    "--out-msi", str(outputs[1])]
        else:
            args = ["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
                    "--out", str(outputs[0])]
        capsys.readouterr()
        rc = main([*args, "--kernel-size", "3", "--factor", "2",
                   "--spectral-matrix", str(tmp_path / "bad.dm2")])
        assert rc == 1
        assert capsys.readouterr().err == "error: spectral holds a NaN or an infinity\n"
        assert not any(path.exists() for path in outputs)

    def test_degrade_rejects_msi_bands_with_spectral_matrix(self, tmp_path, capsys):
        # The matrix's rows set the MSI's band count, so --msi-bands would have no effect.
        sri = self.simulate(tmp_path)
        spectral = tmp_path / "pm3.dm2"
        write_matrix(spectral, band_aggregation_matrix(8, 3))
        common = ["degrade", "--sri", str(sri), "--out-hsi", str(tmp_path / "hsi.dt3"),
                  "--out-msi", str(tmp_path / "msi.dt3"), "--kernel-size", "3",
                  "--factor", "2", "--spectral-matrix", str(spectral)]
        assert main([*common, "--msi-bands", "5"]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and "--msi-bands" in err
        assert not (tmp_path / "msi.dt3").exists()
        assert main(common) == 0
        assert read_tensor(tmp_path / "msi.dt3").shape == (12, 12, 3)

    def test_degrade_rejects_seed_without_noise(self, tmp_path, capsys):
        # No noise is drawn from two noiseless images, so --seed would have no effect.
        sri = self.simulate(tmp_path)
        common = ["degrade", "--sri", str(sri), "--out-hsi", str(tmp_path / "hsi.dt3"),
                  "--out-msi", str(tmp_path / "msi.dt3"), "--kernel-size", "3",
                  "--factor", "2", "--seed", "5"]
        for snrs in ([], ["--snr-hsi", "inf", "--snr-msi", "inf"]):
            assert main([*common, *snrs]) == 1
            err = capsys.readouterr().err
            assert "error:" in err and "--seed" in err
            assert not (tmp_path / "hsi.dt3").exists()
        assert main([*common, "--snr-hsi", "10"]) == 0

    def test_degrade_seed_defaults_to_zero_when_noise_is_drawn(self, tmp_path):
        sri = self.simulate(tmp_path)
        outputs = {}
        for name, extra in (("default", []), ("zero", ["--seed", "0"]),
                            ("msi-only", ["--seed", "0", "--snr-hsi", "inf"])):
            out = tmp_path / name
            out.mkdir()
            paths = self.degrade(out, sri, ["--snr-msi", "10", *extra])
            outputs[name] = [p.read_bytes() for p in paths]
        assert outputs["default"] == outputs["zero"] == outputs["msi-only"]

    def test_fuse_flag_route_reports_factor_mismatch(self, tmp_path, capsys):
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        rc = main(["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
                   "--out", str(tmp_path / "x.dt3"), "--kernel-size", "3",
                   "--factor", "3"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_fuse_rejects_zero_factor(self, tmp_path, capsys):
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        rc = main(["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
                   "--out", str(tmp_path / "x.dt3"), "--kernel-size", "3",
                   "--factor", "0"])
        assert rc == 1
        assert "factor" in capsys.readouterr().err
        assert not (tmp_path / "x.dt3").exists()

    @pytest.mark.parametrize(
        "extra",
        [("--factor", "7"), ("--spectral-matrix", "absent.dm2"), ("--kernel-size", "3")],
    )
    def test_fuse_operator_files_reject_model_flags(self, tmp_path, capsys, extra):
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        rc = main(["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
                   "--out", str(tmp_path / "x.dt3"),
                   "--p1", str(tmp_path / "p1.dm2"), "--p2", str(tmp_path / "p2.dm2"),
                   "--pm", str(tmp_path / "pm.dm2"), *extra])
        assert rc == 1
        assert extra[0] in capsys.readouterr().err
        assert not (tmp_path / "x.dt3").exists()

    @pytest.mark.parametrize("window", ["0", "-3", "2"])
    def test_fuse_rejects_bad_smooth_window(self, tmp_path, capsys, window):
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        rc = main(["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
                   "--out", str(tmp_path / "x.dt3"), "--kernel-size", "3",
                   "--smooth-window", window])
        assert rc == 1
        assert "window" in capsys.readouterr().err
        assert not (tmp_path / "x.dt3").exists()

    def test_fuse_partial_operator_files_fail(self, tmp_path, capsys):
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        rc = main(["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
                   "--out", str(tmp_path / "x.dt3"), "--p1", str(tmp_path / "p1.dm2")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_fuse_infers_factor_for_sizes_not_a_multiple_of_it(self, tmp_path):
        # 10 rows at factor 4 keep ceil(10 / 4) = 3; 10 / 3 rounds to 3.
        sri = self.simulate(tmp_path, dims=(10, 10, 8))
        hsi, msi = self.degrade(tmp_path, sri, ["--factor", "4", "--msi-bands", "3"])
        common = ["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
                  "--max-iters", "20", "--kernel-size", "3"]
        inferred, given = tmp_path / "a.dt3", tmp_path / "b.dt3"
        assert main([*common, "--out", str(inferred)]) == 0
        assert main([*common, "--out", str(given), "--factor", "4"]) == 0
        assert inferred.read_bytes() == given.read_bytes()

    def test_fuse_rejects_shapes_no_factor_fits(self, tmp_path, capsys):
        # The first spatial mode needs factor 4 (10 -> 3), the second 2 (10 -> 5).
        rng = np.random.default_rng(0)
        write_tensor(tmp_path / "hsi.dt3", rng.uniform(size=(3, 5, 8)))
        write_tensor(tmp_path / "msi.dt3", rng.uniform(size=(10, 10, 3)))
        rc = main(["fuse", "--hsi", str(tmp_path / "hsi.dt3"), "--msi", str(tmp_path / "msi.dt3"),
                   "--rank", "2", "--out", str(tmp_path / "x.dt3"), "--kernel-size", "3"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and "--factor" in err
        assert not (tmp_path / "x.dt3").exists()

    @pytest.mark.parametrize("algorithm", ["nn-nls", "als"])
    @pytest.mark.parametrize("tol", ["-1", "0", "nan"])
    def test_fuse_rejects_nonpositive_rel_f_tol(self, tmp_path, capsys, algorithm, tol):
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        rc = main(["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
                   "--out", str(tmp_path / "x.dt3"), "--algorithm", algorithm,
                   "--kernel-size", "3", "--rel-f-tol", tol])
        assert rc == 1
        assert "rel_f_tol must be positive" in capsys.readouterr().err
        assert not (tmp_path / "x.dt3").exists()

    @pytest.mark.parametrize("flag", ["--grad-tol", "--rel-f-tol"])
    def test_fuse_rejects_an_infinite_tolerance_before_any_read(self, tmp_path, capsys, flag):
        rc = main(["fuse", "--hsi", str(tmp_path / "absent.dt3"),
                   "--msi", str(tmp_path / "absent.dt3"), "--rank", "2",
                   "--out", str(tmp_path / "x.dt3"), flag, "inf"])
        assert rc == 1
        name = flag[2:].replace("-", "_")
        assert f"{name} must be positive and finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "x.dt3").exists()

    def test_fuse_als_backend_runs(self, tmp_path, capsys):
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        rc = main(["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
                   "--out", str(tmp_path / "als.dt3"), "--algorithm", "als",
                   "--kernel-size", "3", "--factor", "2"])
        assert rc == 0
        assert read_tensor(tmp_path / "als.dt3").shape == (12, 12, 8)

    def test_fuse_smooth_window_smooths_the_written_estimate(self, tmp_path):
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        written = {}
        for window in ("1", "3"):
            out = tmp_path / f"est{window}.dt3"
            assert main(["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
                         "--out", str(out), "--kernel-size", "3", "--max-iters", "20",
                         "--smooth-window", window]) == 0
            written[window] = read_tensor(out)
        np.testing.assert_array_equal(written["3"], spatial_smooth(written["1"], 3))

    def test_evaluate_prints_metrics(self, tmp_path, capsys):
        sri = self.simulate(tmp_path)
        rc = main(["evaluate", "--estimate", str(sri), "--truth", str(sri)])
        assert rc == 0
        out = capsys.readouterr().out.splitlines()
        parsed = dict(line.split("=", 1) for line in out if "=" in line)
        assert float(parsed["rmse"]) == 0.0
        assert float(parsed["cc"]) == 1.0
        assert parsed["rsnr_db"] == "inf"
        assert float(parsed["sam"]) < 1e-7

    def test_evaluate_scores_an_infinite_entry(self, tmp_path, capsys):
        sri = self.simulate(tmp_path)
        est = read_tensor(sri)
        est[0, 0, 0] = math.inf
        write_tensor(tmp_path / "est.dt3", est)
        rc = main(["evaluate", "--estimate", str(tmp_path / "est.dt3"), "--truth", str(sri)])
        assert rc == 0
        captured = capsys.readouterr()
        parsed = dict(line.split("=", 1) for line in captured.out.splitlines() if "=" in line)
        assert parsed == {"rmse": "inf", "cc": "nan", "rsnr_db": "-inf", "sam": "nan"}
        assert captured.err == ""

    @pytest.mark.parametrize("window", ["0", "-3"])
    def test_evaluate_rejects_bad_smooth_window(self, tmp_path, capsys, window):
        sri = self.simulate(tmp_path)
        rc = main(["evaluate", "--estimate", str(sri), "--truth", str(sri),
                   "--smooth-window", window])
        assert rc == 1
        assert "window" in capsys.readouterr().err

    def test_evaluate_checks_smooth_window_before_any_read(self, tmp_path, capsys):
        rc = main(["evaluate", "--estimate", str(tmp_path / "absent.dt3"),
                   "--truth", str(tmp_path / "absent.dt3"), "--smooth-window", "2"])
        assert rc == 1
        assert "--smooth-window" in capsys.readouterr().err

    def test_evaluate_degrees_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        truth, est = tmp_path / "t.dt3", tmp_path / "e.dt3"
        base = rng.uniform(0.5, 1.0, (4, 4, 3))
        write_tensor(truth, base)
        write_tensor(est, base + 0.1 * rng.uniform(size=(4, 4, 3)))
        main(["evaluate", "--estimate", str(est), "--truth", str(truth)])
        radians = float(dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines()
        )["sam"])
        main(["evaluate", "--estimate", str(est), "--truth", str(truth), "--degrees"])
        degrees = float(dict(
            line.split("=", 1) for line in capsys.readouterr().out.splitlines()
        )["sam"])
        # The same angle, converted: not recomputed to a nearby value.
        assert degrees == math.degrees(radians)

    def sweep_args(self, out_dir, extra=()):
        return [
            "sweep", "--dims", "10", "10", "6", "--true-rank", "2", "--rank", "2",
            "--snr-db", "inf", "--replicates", "2", "--master-seed", "0",
            "--kernel-size", "3", "--factor", "2", "--msi-bands", "3",
            "--max-iters", "100", "--out-dir", str(out_dir), *extra,
        ]

    def test_sweep_writes_deterministic_csv(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(self.sweep_args(dir_a)) == 0
        assert main(self.sweep_args(dir_b)) == 0
        assert (dir_a / "results.csv").read_bytes() == (dir_b / "results.csv").read_bytes()
        assert (dir_a / "summary.csv").read_bytes() == (dir_b / "summary.csv").read_bytes()
        rows = read_results(dir_a / "results.csv")
        assert len(rows) == 2
        assert all(r.wall_time_seconds == 0.0 for r in rows)

    def test_sweep_record_timing_keeps_wall_time(self, tmp_path):
        out = tmp_path / "timed"
        assert main(self.sweep_args(out, extra=("--record-timing",))) == 0
        rows = read_results(out / "results.csv")
        assert any(r.wall_time_seconds > 0.0 for r in rows)

    def test_sweep_rank_axis(self, tmp_path, capsys):
        out = tmp_path / "ranks"
        rc = main([
            "sweep", "--dims", "10", "10", "6", "--true-rank", "2",
            "--rank", "1", "2", "--replicates", "1", "--master-seed", "0",
            "--kernel-size", "3", "--factor", "2", "--msi-bands", "3",
            "--max-iters", "60", "--out-dir", str(out),
        ])
        assert rc == 0
        assert [r.rank for r in read_results(out / "results.csv")] == [1, 2]
        medians = [line for line in capsys.readouterr().out.splitlines() if "median" in line]
        assert [line.split()[2] for line in medians] == ["rank=1", "rank=2"]

    def test_sweep_worker_pool_matches_serial(self, tmp_path):
        pooled, serial = tmp_path / "pooled", tmp_path / "serial"
        assert main(self.sweep_args(pooled, extra=("--workers", "2"))) == 0
        assert main(self.sweep_args(serial)) == 0
        for name in ("results.csv", "summary.csv"):
            assert (pooled / name).read_bytes() == (serial / name).read_bytes()

    def test_sweep_rejects_bad_smooth_window(self, tmp_path, capsys):
        rc = main(self.sweep_args(tmp_path / "x", extra=("--smooth-window", "0")))
        assert rc == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_sweep_smooth_window_scores_the_smoothed_estimate(self, tmp_path, monkeypatch):
        estimates = []
        real = cpfuse.experiment.reconstruct_sri

        def recorded(model):
            estimates.append(real(model))
            return estimates[-1].copy()

        monkeypatch.setattr(cpfuse.experiment, "reconstruct_sri", recorded)
        out = tmp_path / "smoothed"
        assert main(self.sweep_args(out, extra=("--smooth-window", "3"))) == 0
        truth = simulate_scene(SceneConfig(dims=(10, 10, 6), rank=2, seed=0))
        rows = read_results(out / "results.csv")
        assert len(rows) == len(estimates) == 2
        for row, est in zip(rows, estimates):
            report = metrics_report(spatial_smooth(est, 3), truth)
            assert (row.rmse, row.cc, row.rsnr_db, row.sam) == (
                report.rmse, report.cc, report.rsnr_db, report.sam_radians
            )

    def test_sweep_scores_an_infinite_estimate(self, tmp_path, monkeypatch):
        # An estimate that overflowed scores inf/NaN in its row; the sweep goes on.
        real = cpfuse.experiment.reconstruct_sri
        calls = []

        def first_infinite(model):
            est = real(model)
            if not calls:
                est[0, 0, 0] = math.inf
            calls.append(model)
            return est

        monkeypatch.setattr(cpfuse.experiment, "reconstruct_sri", first_infinite)
        out = tmp_path / "infinite"
        assert main(self.sweep_args(out)) == 0
        first, second = read_results(out / "results.csv")
        assert (first.rmse, first.rsnr_db) == (math.inf, -math.inf)
        assert math.isnan(first.cc) and math.isnan(first.sam)
        assert all(math.isfinite(v) for v in (second.rmse, second.cc, second.rsnr_db, second.sam))

    @pytest.mark.parametrize("axis", [(), ("--rank", "2")])
    def test_sweep_unset_flags_take_the_config_defaults(self, tmp_path, monkeypatch, axis):
        built = []

        def capture(cfg):
            built.append(cfg)
            return [], []

        monkeypatch.setattr(cpfuse.cli, "run_experiment", capture)
        assert main(["sweep", "--dims", "10", "10", "6", *axis, "--master-seed", "0",
                     "--out-dir", str(tmp_path / "x")]) == 0
        grid = {"ranks": (2,)} if axis else {}
        assert built == [ExperimentConfig(
            degradation=DegradationConfig(),
            solver=SolverConfig(),
            scene=SceneConfig(dims=(10, 10, 6), rank=3),
            master_seed=0,
            **grid,
        )]

    def test_sweep_grid_rows_are_its_one_point_sweeps_snr_major(self, tmp_path):
        def sweep(out, snrs, ranks, extra=()):
            # argparse keeps the last --snr-db and --rank, so these replace sweep_args'.
            grid = ("--snr-db", *snrs, "--rank", *ranks, "--max-iters", "20", *extra)
            assert main(self.sweep_args(out, extra=grid)) == 0
            return [(out / name).read_text().splitlines()
                    for name in ("results.csv", "summary.csv")]

        results, summary = sweep(tmp_path / "grid", ("10", "20"), ("1", "2"))
        assert [(r.snr_db, r.rank) for r in read_results(tmp_path / "grid" / "results.csv")] == [
            (snr, rank) for snr in (10.0, 20.0) for rank in (1, 2) for _ in range(2)
        ]
        # Line for line, each point's rows are those of the sweep of that point alone.
        points = [sweep(tmp_path / f"{snr}-{rank}", (snr,), (rank,))
                  for snr in ("10", "20") for rank in ("1", "2")]
        assert results == results[:1] + [line for r, _ in points for line in r[1:]]
        assert summary == summary[:1] + [line for _, s in points for line in s[1:]]
        pooled = sweep(tmp_path / "pooled", ("10", "20"), ("1", "2"), ("--workers", "2"))
        assert pooled == [results, summary]

    def test_sweep_checks_out_dir_before_any_replicate(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cpfuse.cli, "run_experiment", calls.append)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(self.sweep_args(taken)) == 1
        assert "File exists" in capsys.readouterr().err
        assert calls == []

    def test_sweep_rejects_spectral_matrix_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(self.sweep_args(tmp_path / "x", extra=("--spectral-matrix", "x")))
        assert exc.value.code != 0
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "extra", [("--true-rank", "2"), ("--scene-seed", "1"), ("--background", "0.5")]
    )
    def test_sweep_rejects_flags_it_would_ignore(self, tmp_path, capsys, extra):
        # They describe the synthetic scene, so --sri rejects them.
        write_tensor(tmp_path / "sri.dt3", np.random.default_rng(0).uniform(size=(10, 10, 6)))
        rc = main([
            "sweep", "--sri", str(tmp_path / "sri.dt3"), *extra,
            "--replicates", "1", "--master-seed", "0",
            "--kernel-size", "3", "--factor", "2", "--msi-bands", "3",
            "--max-iters", "5", "--out-dir", str(tmp_path / "x"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert "error:" in err and extra[0] in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["degrade", "--sri", "absent.dt3", "--out-hsi", "h.dt3", "--out-msi", "m.dt3",
              "--snr-hsi", "nan"], "--snr-hsi must be finite or +inf, got nan"),
            (["degrade", "--sri", "absent.dt3", "--out-hsi", "h.dt3", "--out-msi", "m.dt3",
              "--snr-msi=-inf"], "--snr-msi must be finite or +inf, got -inf"),
            (["sweep", "--dims", "10", "10", "6", "--snr-db", "5", "nan",
              "--master-seed", "0", "--out-dir", "x"], "snr_db must be finite or +inf, got nan"),
        ],
        ids=["degrade", "degrade-msi", "sweep"],
    )
    def test_invalid_snr_rejected_before_any_scene(self, tmp_path, capsys, monkeypatch,
                                                   argv, message):
        # The SNR is rejected before the scene is read or simulated.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cpfuse.experiment, "simulate_scene", None)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["simulate", "--dims", "10", "10", "6", "--rank", "2", "--seed", "-1",
              "--out", "sri.dt3"], "seed"),
            (["sweep", "--dims", "10", "10", "6", "--snr-db", "10", "--master-seed", "-1",
              "--out-dir", "x"], "master_seed"),
            # The seed is checked before the (absent) input files are read.
            (["degrade", "--sri", "absent.dt3", "--out-hsi", "h.dt3", "--out-msi", "m.dt3",
              "--snr-hsi", "10", "--seed", "-1"], "--seed"),
            (["fuse", "--hsi", "missing.dt3", "--msi", "missing.dt3", "--rank", "2",
              "--out", "x.dt3", "--seed", "-1"], "--seed"),
        ],
        ids=["simulate", "sweep", "degrade", "fuse"],
    )
    def test_negative_seed_rejected_before_any_scene(self, tmp_path, capsys, monkeypatch,
                                                     argv, name):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cpfuse.experiment, "simulate_scene", None)
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {name} must be nonnegative, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("amplitude", ["nan", "inf", "-1.0"])
    def test_simulate_rejects_a_bad_background(self, tmp_path, capsys, amplitude):
        out = tmp_path / "sri.dt3"
        assert main(["simulate", "--dims", "8", "8", "6", "--rank", "2",
                     "--background", amplitude, "--out", str(out)]) == 1
        assert "background_amplitude must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_degrade_rejects_a_non_finite_scene(self, tmp_path, capsys, bad):
        # The images are checked, not the scene: a NaN or infinity in the scene
        # reaches both, and the HSI is checked first.  No RuntimeWarning is
        # raised (pytest would turn it into an error) and nothing is written.
        sri = self.simulate(tmp_path)
        scene = read_tensor(sri)
        scene[3, 4, 2] = bad
        write_tensor(sri, scene)
        capsys.readouterr()
        outputs = ["hsi.dt3", "msi.dt3", "p1.dm2"]
        rc = main(["degrade", "--sri", str(sri), "--out-hsi", str(tmp_path / outputs[0]),
                   "--out-msi", str(tmp_path / outputs[1]), "--out-p1", str(tmp_path / outputs[2]),
                   "--kernel-size", "3", "--factor", "2", "--snr-hsi", "20"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: the HSI has a non-finite squared norm (nan)")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not any((tmp_path / name).exists() for name in outputs)

    @pytest.mark.parametrize("algorithm", ["nn-nls", "als"])
    def test_fuse_rejects_a_nan_hsi(self, tmp_path, capsys, algorithm):
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        image = read_tensor(hsi)
        image[0, 0, 0] = math.nan
        write_tensor(hsi, image)
        rc = main(["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
                   "--out", str(tmp_path / "x.dt3"), "--algorithm", algorithm,
                   "--kernel-size", "3"])
        assert rc == 1
        assert "error: the HSI has a non-finite squared norm" in capsys.readouterr().err
        assert not (tmp_path / "x.dt3").exists()

    @pytest.mark.parametrize("algorithm", ["nn-nls", "als"])
    def test_fuse_rejects_a_non_finite_operator_file(self, tmp_path, capsys, algorithm):
        # Named when the operators are built, not blamed on the solver's iterate.
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        p1 = read_matrix(tmp_path / "p1.dm2")
        p1[0, 0] = math.nan
        write_matrix(tmp_path / "p1.dm2", p1)
        capsys.readouterr()
        rc = main(["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
                   "--out", str(tmp_path / "x.dt3"), "--algorithm", algorithm,
                   "--p1", str(tmp_path / "p1.dm2"), "--p2", str(tmp_path / "p2.dm2"),
                   "--pm", str(tmp_path / "pm.dm2")])
        assert rc == 1
        assert capsys.readouterr().err == "error: spatial_1 holds a NaN or an infinity\n"
        assert not (tmp_path / "x.dt3").exists()

    def test_fuse_als_rejects_grad_tol(self, tmp_path, capsys):
        sri = self.simulate(tmp_path)
        hsi, msi = self.degrade(tmp_path, sri)
        rc = main(["fuse", "--hsi", str(hsi), "--msi", str(msi), "--rank", "2",
                   "--out", str(tmp_path / "x.dt3"), "--kernel-size", "3",
                   "--algorithm", "als", "--grad-tol", "1e-3"])
        assert rc == 1
        assert "error: --grad-tol" in capsys.readouterr().err
        assert not (tmp_path / "x.dt3").exists()

    def test_sweep_requires_exactly_one_scene_source(self, tmp_path, capsys):
        rc = main([
            "sweep", "--snr-db", "inf", "--replicates", "1", "--master-seed", "0",
            "--out-dir", str(tmp_path / "x"),
        ])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_input_file_exits_nonzero(self, tmp_path, capsys):
        rc = main(["fuse", "--hsi", str(tmp_path / "absent.dt3"),
                   "--msi", str(tmp_path / "absent2.dt3"), "--rank", "2",
                   "--out", str(tmp_path / "o.dt3")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_shape_mismatch_exits_nonzero(self, tmp_path, capsys):
        a, b = tmp_path / "a.dt3", tmp_path / "b.dt3"
        write_tensor(a, np.ones((3, 3, 2)))
        write_tensor(b, np.ones((4, 4, 2)))
        rc = main(["evaluate", "--estimate", str(a), "--truth", str(b)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err
