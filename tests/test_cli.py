import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from circfourier import (
    BSplineKernel,
    EvalCounter,
    FourierDensity,
    grid_ancestral_sample,
    random_density,
    save_density,
)
from circfourier import cli
from circfourier.batch import SampleBatch
from circfourier.refine import SCHEDULES, LangevinConfig, mala_refine, ula_refine
from circfourier.cli import (
    METHODS,
    ConfigError,
    ExperimentConfig,
    build_parser,
    config_from_args,
    load_config,
    main,
    run_convergence,
    run_cost,
    run_refinement,
    run_sample,
)


def run_cli(tmp_path, *argv):
    out = tmp_path / "out.csv"
    code = main([*argv, "--output", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestConfig:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

    def test_round_trip_through_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(
            "seed=42\nn=20\nk=80\nd=2\ns=1234\nt=5\n"
            "eps_ula=2e-5\nmethod=daas+ula\nk_sweep=64,128\ndegrees=0,1,2\n"
        )
        cfg = load_config(path)
        assert cfg.seed == 42
        assert cfg.n == 20
        assert cfg.d == 2
        assert cfg.eps_ula == 2e-5
        assert cfg.k_sweep == (64, 128)
        assert cfg.degrees == (0, 1, 2)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("bogus=1\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_k_below_nyquist_rejected(self):
        with pytest.raises(ValueError, match=r"2N\+1"):
            run_sample(ExperimentConfig(n=30, k=50))

    def test_bad_method_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(method="metropolis").validate()

    def test_nonincreasing_sweep_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(k_sweep=(128, 128)).validate()

    def test_flags_and_config_lines_parse_alike(self, tmp_path):
        values = {
            "seed": "7", "n": "3", "k": "9", "d": "2", "s": "11", "t": "4",
            "eps_ula": "2e-5", "eps_mala": "3e-4", "schedule": "decay",
            "method": "daas+mala", "trials": "2", "k_sweep": "16,32",
            "t_sweep": "0,2", "degrees": "0,2", "tol": "1e-8",
            "model_file": "m.txt",
        }
        path = tmp_path / "exp.cfg"
        path.write_text("".join(f"{k}={v}\n" for k, v in values.items()))
        argv = ["sample"]
        for k, v in values.items():
            argv += ["--" + k.replace("_", "-"), v]
        from_flags = config_from_args(build_parser().parse_args(argv))
        assert from_flags == load_config(path)
        assert from_flags == ExperimentConfig(
            seed=7, n=3, k=9, d=2, s=11, t=4, eps_ula=2e-5, eps_mala=3e-4,
            schedule="decay", method="daas+mala", trials=2, k_sweep=(16, 32),
            t_sweep=(0, 2), degrees=(0, 2), tol=1e-8, model_file="m.txt",
        )

    def test_help_texts(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit):
            main(["sample", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        for text in (
            "frequency terms", "grid points", "kernel degree",
            "number of samples", "refinement steps", "comma-separated K values",
            "comma-separated T values", "comma-separated kernel degrees",
        ):
            assert text in out

    @pytest.mark.parametrize("flag,raw", [
        ("--seed", "abc"), ("--k-sweep", "3,x"), ("--eps-ula", "fast"),
    ])
    def test_malformed_flag_exits_2(self, capsys, flag, raw):
        assert main(["sample", flag, raw]) == 2
        assert capsys.readouterr().err.startswith(f"error: {flag}: ")

    def test_malformed_config_line_exits_2(self, tmp_path, capsys):
        path = tmp_path / "exp.cfg"
        path.write_text("n=3\nseed=abc\n")
        assert main(["sample", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:2: ")

    @pytest.mark.parametrize("argv", [
        ["sample", "--bogus", "1"], ["sample", "--n"], ["nosuch"], [],
    ])
    def test_usage_error_returns_2(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: circfourier")

    def test_negative_t_sweep_rejected(self):
        assert main(["refinement", "--n", "2", "--k", "5", "--s", "200",
                     "--t-sweep", "0,-3,2"]) == 2
        with pytest.raises(ConfigError):
            ExperimentConfig(t_sweep=(0, -3, 2)).validate()

    @pytest.mark.parametrize("flag,raw", [
        ("--method", "metropolis"), ("--schedule", "linear"), ("--d", "3"),
        ("--degrees", "1,3"), ("--degrees", ""),
    ])
    def test_value_outside_its_set_exits_2(self, flag, raw):
        assert main(["sample", flag, raw, "--s", "10"]) == 2

    @pytest.mark.parametrize("method,flag", [
        ("daas+ula", "--eps-ula"), ("daas+mala", "--eps-mala"),
    ])
    def test_infinite_step_size_exits_2(self, tmp_path, method, flag):
        code, _ = run_cli(tmp_path, "sample", "--method", method, flag, "inf",
                          "--n", "3", "--k", "7", "--s", "10", "--t", "1")
        assert code == 2

    @pytest.mark.parametrize("method,flag", [
        ("daas+ula", "--eps-ula"), ("daas+mala", "--eps-mala"),
    ])
    def test_huge_step_size_exits_2(self, tmp_path, method, flag):
        # a finite step whose noise spans the circle many times over
        code, _ = run_cli(tmp_path, "sample", "--method", method, flag,
                          "1e300", "--n", "5", "--k", "11", "--s", "5",
                          "--t", "1")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["refinement", "--n", "20", "--k", "80", "--s", "200000",
         "--eps-mala", "2"],
        ["sample", "--method", "daas+ula", "--k", "2097152", "--n", "200",
         "--eps-ula", "2"],
        ["sample", "--method", "daas", "--eps-mala", "2"],
        ["convergence", "--eps-ula", "0"],
        ["cost", "--eps-mala", "2"],
        ["cost", "--t-sweep", "0,-1"],
        ["convergence", "--d", "3"],
    ])
    def test_chain_and_kernel_checked_before_any_work(self, monkeypatch,
                                                      capsys, argv):
        # every command checks both chains and every kernel it could
        # build, whatever the method, before it draws a grid or reference
        def no_work(*args, **kwargs):
            pytest.fail("work started before the config was checked")

        for name in ("grid_ancestral_sample", "rejection_sample",
                     "build_ancestor", "inverse_transform_sample"):
            monkeypatch.setattr(cli, name, no_work)
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command",
                             ["sample", "convergence", "refinement", "cost"])
    def test_negative_seed_rejected_before_any_work(self, monkeypatch, capsys,
                                                    command):
        def no_work(*args, **kwargs):
            pytest.fail("work started before the config was checked")

        for name in ("grid_ancestral_sample", "rejection_sample",
                     "build_ancestor", "inverse_transform_sample"):
            monkeypatch.setattr(cli, name, no_work)
        assert main([command, "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0\n"

    @pytest.mark.parametrize("argv,error", [
        (["convergence", "--degrees", "1,1"], "degrees must be strictly increasing"),
        (["convergence", "--degrees", "2,1"], "degrees must be strictly increasing"),
        (["sample", "--degrees", "0,2,2"], "degrees must be strictly increasing"),
        (["sample", "--method", "inverse", "--tol", "inf"],
         "tol must be finite and positive"),
        (["convergence", "--tol", "inf"], "tol must be finite and positive"),
    ])
    def test_repeated_degree_and_infinite_tol_rejected_before_any_work(
            self, monkeypatch, capsys, argv, error):
        # a repeated degree would print every convergence row twice, and an
        # infinite tol would fail only inside the inverse sampler
        def no_work(*args, **kwargs):
            pytest.fail("work started before the config was checked")

        for name in ("grid_ancestral_sample", "rejection_sample",
                     "build_ancestor", "inverse_transform_sample"):
            monkeypatch.setattr(cli, name, no_work)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {error}\n"

    @pytest.mark.parametrize("argv", [
        ["sample", "--method", "inverse", "--n", "3", "--s", "5", "--tol", "10",
         "--seed", "1"],
        ["sample", "--method", "inverse", "--tol", "2"],
        ["convergence", "--tol", "2"],
    ])
    def test_tol_of_two_or_more_rejected_before_any_work(
            self, monkeypatch, capsys, argv):
        # bisection from [-1, 1) takes ceil(log2(2/tol)) steps, none at all
        # for tol >= 2, which put every sample at the midpoint 0
        def no_work(*args, **kwargs):
            pytest.fail("work started before the config was checked")

        for name in ("grid_ancestral_sample", "rejection_sample",
                     "build_ancestor", "inverse_transform_sample"):
            monkeypatch.setattr(cli, name, no_work)
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            "error: tol must be below 2, the width of the domain\n"


_GRID_COMMANDS = [
    ("sample", "daas"), ("sample", "daas+ula"), ("sample", "daas+mala"),
    ("refinement", "daas"), ("cost", "daas"), ("convergence", "daas"),
]


class TestGridSizeGuard:
    """Every command that builds a grid needs K >= 2N+1, with N the model
    file's under --model-file, and reports a smaller K with exit 2."""

    @pytest.mark.parametrize("source", ["n", "model-file"])
    @pytest.mark.parametrize("command,method", _GRID_COMMANDS)
    @pytest.mark.parametrize("extra,code", [(0, 2), (1, 0)])
    def test_k_against_model_n(self, tmp_path, capsys, command, method,
                               source, extra, code):
        n_model = 2
        k = 2 * n_model + extra
        k_flag = "--k-sweep" if command == "convergence" else "--k"
        argv = [command, "--method", method, k_flag, str(k), "--s", "50",
                "--t", "1", "--t-sweep", "0,1", "--degrees", "1"]
        if source == "n":
            argv += ["--n", str(n_model)]
        else:
            # a config n that would flip the outcome if k were checked
            # against it instead of the file's N
            path = tmp_path / "model.txt"
            save_density(random_density(n_model, 0), path)
            argv += ["--model-file", str(path), "--n", "0" if code else "9"]
        got, _ = run_cli(tmp_path, *argv)
        assert got == code
        if code:
            assert "2n+1" in capsys.readouterr().err.lower()


class TestSampleCommand:
    def test_uniform_model_in_range(self, tmp_path):
        code, text = run_cli(
            tmp_path, "sample", "--n", "0", "--k", "5", "--s", "100",
            "--seed", "1",
        )
        assert code == 0
        vals = [float(ln) for ln in text.splitlines() if not ln.startswith("#")]
        assert len(vals) == 100
        assert all(-1 <= v < 1 for v in vals)

    def test_byte_identical_reruns(self, tmp_path):
        args = ("sample", "--n", "5", "--k", "20", "--s", "50", "--seed", "9")
        _, first = run_cli(tmp_path, *args)
        _, second = run_cli(tmp_path, *args)
        assert first == second

    def test_manifest_reports_grid_evals(self, tmp_path):
        code, text = run_cli(
            tmp_path, "sample", "--n", "10", "--k", "50", "--s", "1000",
            "--seed", "3",
        )
        assert code == 0
        assert "pdf_evals=50" in text
        assert "# seed=3 K=50 D=1 S=1000" in text

    @pytest.mark.parametrize("method", ["daas+ula", "daas+mala", "rejection", "inverse"])
    def test_all_methods_run(self, tmp_path, method):
        code, text = run_cli(
            tmp_path, "sample", "--n", "4", "--k", "20", "--s", "200",
            "--t", "3", "--seed", "5", "--method", method,
        )
        assert code == 0
        vals = [float(ln) for ln in text.splitlines() if not ln.startswith("#")]
        assert len(vals) == 200

    @pytest.mark.parametrize("method", ["rejection", "inverse"])
    def test_manifest_without_grid(self, tmp_path, method):
        code, text = run_cli(
            tmp_path, "sample", "--method", method, "--n", "30", "--k", "50",
            "--s", "3",
        )
        assert code == 0
        manifest = [ln for ln in text.splitlines() if ln.startswith("#")]
        assert manifest[0] == "# seed=0 S=3"
        assert f"# method={method}" in manifest
        if method == "rejection":
            assert any(ln.startswith("# envelope=") for ln in manifest)
        assert not any(ln.startswith("# S=") for ln in manifest)

    def test_mala_manifest_has_acceptance_rate(self, tmp_path):
        _, text = run_cli(
            tmp_path, "sample", "--n", "4", "--k", "20", "--s", "200",
            "--t", "3", "--seed", "5", "--method", "daas+mala",
        )
        assert "acceptance_rate=" in text

    def test_mala_manifest_has_acceptance_spread(self, tmp_path):
        code, text = run_cli(tmp_path, "sample", "--method", "daas+mala",
                             "--t", "3", "--s", "200")
        assert code == 0
        lines = [ln for ln in text.splitlines() if ln.startswith("# acceptance")]
        assert [ln.split("=")[0] for ln in lines] == [
            "# acceptance_max", "# acceptance_min", "# acceptance_rate"]

    @pytest.mark.parametrize("method", ["daas", "daas+mala", "inverse"])
    def test_model_file_scale_and_offset_in_manifest(self, tmp_path, method):
        path = tmp_path / "model.txt"
        save_density(FourierDensity([1.0, 0.3], scale=2.5, offset=-0.75),
                     path)
        code, text = run_cli(tmp_path, "sample", "--model-file", str(path),
                             "--method", method, "--k", "7", "--s", "20",
                             "--t", "1")
        assert code == 0
        lines = text.splitlines()
        assert "# scale=2.5" in lines and "# offset=-0.75" in lines
        # a random model has no file, and so no scale or offset lines
        code, text = run_cli(tmp_path, "sample", "--method", method, "--n",
                             "2", "--k", "7", "--s", "20", "--t", "1")
        assert code == 0
        assert "scale=" not in text and "offset=" not in text

    def test_model_file_used(self, tmp_path):
        path = tmp_path / "model.txt"
        save_density(FourierDensity([1.0]), path)
        cfg = ExperimentConfig(n=0, k=7, s=500, seed=2, model_file=str(path))
        batch = run_sample(cfg)
        # uniform model: empirical mean near 0
        assert abs(batch.samples.mean()) < 0.1

    def test_invalid_k_exits_2(self, tmp_path):
        code, _ = run_cli(
            tmp_path, "sample", "--n", "30", "--k", "50", "--s", "10",
        )
        assert code == 2

    @pytest.mark.parametrize("method", ["rejection", "inverse"])
    def test_k_unchecked_for_methods_without_grid(self, tmp_path, method):
        # k < 2n+1, against the config's n and against a model file's N
        code, _ = run_cli(
            tmp_path, "sample", "--method", method, "--n", "30", "--k", "50",
            "--s", "10",
        )
        assert code == 0
        path = tmp_path / "model.txt"
        save_density(random_density(5, 0), path)
        code, _ = run_cli(
            tmp_path, "sample", "--method", method, "--model-file", str(path),
            "--k", "7", "--s", "10",
        )
        assert code == 0

    def test_config_file_with_flag_override(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed=4\nn=3\nk=10\ns=25\n")
        code, text = run_cli(
            tmp_path, "sample", "--config", str(path), "--s", "30",
        )
        assert code == 0
        vals = [ln for ln in text.splitlines() if not ln.startswith("#")]
        assert len(vals) == 30


class TestConvergenceCommand:
    def test_row_format_and_order(self, tmp_path):
        code, text = run_cli(
            tmp_path, "convergence", "--n", "5", "--s", "2000",
            "--trials", "2", "--k-sweep", "16,32", "--degrees", "0,1",
            "--seed", "0",
        )
        assert code == 0
        rows = [ln.split(",") for ln in text.splitlines()]
        assert len(rows) == 2 * 2 * 2
        keys = [(int(r[0]), int(r[1]), int(r[2])) for r in rows]
        assert keys == sorted(keys)
        # %.17g round-trips: the columns are the values run_convergence
        # returns, standard error included
        assert [(*map(int, r[:3]), *map(float, r[3:])) for r in rows] == (
            run_convergence(ExperimentConfig(
                n=5, s=2000, trials=2, k_sweep=(16, 32), degrees=(0, 1))))
        assert all(float(r[4]) > 0 for r in rows)

    def test_trials_independent_across_seeds(self):
        # trial t of one seed must not repeat a trial of the next seed
        def rows(seed):
            cfg = ExperimentConfig(seed=seed, n=5, s=2000, trials=2,
                                   k_sweep=(16,), degrees=(1,))
            return {r[3:] for r in run_convergence(cfg)}

        assert not rows(0) & rows(1)

    def test_uniform_model_kl_near_zero(self):
        cfg = ExperimentConfig(
            seed=1, n=0, s=20000, trials=1, k_sweep=(8, 16), degrees=(1,)
        )
        rows = run_convergence(cfg)
        for _, _, _, kl, _ in rows:
            assert abs(kl) < 1e-6

    def test_kl_decreases_with_k(self):
        cfg = ExperimentConfig(
            seed=2, n=5, s=50000, trials=1, k_sweep=(11, 44, 176), degrees=(1,)
        )
        rows = run_convergence(cfg)
        kls = [kl for _, _, _, kl, _ in rows]
        assert kls[0] > kls[1] > kls[2]

    def test_model_file_used_in_every_trial(self, tmp_path):
        # a uniform model: the grid density is exact, so every KL is zero,
        # whereas a random density of n=5 terms reads about 7e-3
        path = tmp_path / "uniform.model"
        save_density(FourierDensity([1.0]), path)
        cfg = ExperimentConfig(seed=0, n=5, s=2000, trials=2, k_sweep=(16,),
                               degrees=(1,), model_file=str(path))
        rows = run_convergence(cfg)
        assert len(rows) == 2
        for _, _, _, kl, _ in rows:
            assert abs(kl) < 1e-6

    @pytest.mark.parametrize("file_n,n,code", [(20, 1, 2), (1, 30, 0)])
    def test_k_sweep_checked_against_file_n(self, tmp_path, file_n, n, code):
        path = tmp_path / "model.txt"
        save_density(random_density(file_n, 0), path)
        got, _ = run_cli(
            tmp_path, "convergence", "--model-file", str(path), "--n", str(n),
            "--s", "200", "--k-sweep", "16", "--degrees", "1",
        )
        assert got == code

    @pytest.mark.parametrize("flag", ["--k-sweep", "--degrees"])
    def test_empty_sweep_exits_2(self, capsys, flag):
        assert main(["convergence", "--n", "3", "--s", "100", flag, ""]) == 2
        name = flag[2:].replace("-", "_")
        assert f"{name} must not be empty" in capsys.readouterr().err


class TestRefinementCommand:
    def test_includes_unrefined_row(self):
        cfg = ExperimentConfig(
            seed=3, n=5, k=11, s=5000, t_sweep=(0, 2), eps_ula=1e-5,
            eps_mala=8e-5,
        )
        rows = run_refinement(cfg)
        methods = {(t, m) for t, m, _ in rows}
        assert (0, "daas") in methods
        assert (2, "ula") in methods
        assert (2, "mala") in methods

    def test_deterministic(self):
        cfg = ExperimentConfig(seed=4, n=4, k=9, s=2000, t_sweep=(0, 1, 3))
        assert run_refinement(cfg) == run_refinement(cfg)

    @pytest.mark.parametrize("schedule", ["constant", "decay"])
    def test_checkpoints_do_not_restart_schedule(self, schedule):
        # the T=5 rows are the same chain whether or not T=1 is also reported
        cfg = ExperimentConfig(seed=4, n=4, k=9, s=2000, eps_ula=1e-3,
                               eps_mala=1e-3, schedule=schedule)
        one = run_refinement(replace(cfg, t_sweep=(0, 5)))
        two = run_refinement(replace(cfg, t_sweep=(0, 1, 5)))
        assert [r for r in one if r[0] == 5] == [r for r in two if r[0] == 5]


class TestCostCommand:
    def test_closed_form_rows(self, tmp_path):
        code, text = run_cli(
            tmp_path, "cost", "--n", "10", "--k", "50", "--s", "1000000",
            "--t", "20", "--seed", "0",
        )
        assert code == 0
        rows = dict(
            (name, int(v)) for name, v in
            (ln.split(",") for ln in text.splitlines())
        )
        assert list(rows) == ["rejection", "daas+ula", "daas+mala", "daas"]
        assert rows["daas"] == 50
        assert rows["daas+ula"] == 4 * 10**7 + 50
        assert rows["daas+mala"] == 8 * 10**7 + 50

    def test_zero_steps_grid_methods_cost_k(self):
        cfg = ExperimentConfig(n=3, k=9, s=1, t=0, seed=1)
        rows = dict(run_cost(cfg))
        assert rows["daas+ula"] == rows["daas+mala"] == rows["daas"] == 9

    @pytest.mark.parametrize("method", ["ula", "mala"])
    def test_refiner_rows_match_real_runs(self, method):
        """The ula and mala rows are the grid's bill plus the ledger of an
        actual refinement run of S samples over T steps."""
        cfg = ExperimentConfig(n=5, k=40, s=50, t=3, seed=3)
        model = random_density(cfg.n, np.random.default_rng(0))
        grid = EvalCounter()
        start = grid_ancestral_sample(
            model, cfg.k, BSplineKernel(1), cfg.s, np.random.default_rng(1), grid
        )
        ledger = EvalCounter()
        refine = ula_refine if method == "ula" else mala_refine
        refine(model, replace(start, counter=EvalCounter()),
               LangevinConfig(step_size=1e-4, steps=cfg.t),
               np.random.default_rng(2), ledger)
        assert dict(run_cost(cfg))["daas+" + method] == (
            grid.total_evals + ledger.total_evals
        )

    def test_rejection_row_measured(self, tmp_path):
        # raised-cosine model has M = 2: ~2 proposals per accepted sample
        path = tmp_path / "model.txt"
        save_density(FourierDensity([1.0, 1.0]), path)
        cfg = ExperimentConfig(
            n=1, k=50, s=10**6, t=20, seed=7, model_file=str(path)
        )
        rows = dict(run_cost(cfg))
        sigma = np.sqrt(10**6 * 0.5 / 0.25)  # negative-binomial spread
        assert abs(rows["rejection"] - 2 * 10**6) < 3 * sigma


    def test_grid_methods_run_before_rejection(self, monkeypatch, tmp_path):
        # K = 2N is below the grid's minimum 2N+1: cost exits 2 on its first
        # grid method, before it would draw the rejection sample
        def drawn(*args, **kwargs):
            raise AssertionError("rejection sample drawn")

        monkeypatch.setattr(cli, "rejection_sample", drawn)
        code, text = run_cli(tmp_path, "cost", "--n", "10", "--k", "20")
        assert (code, text) == (2, "")

    def test_rows_equal_sample_manifests(self, tmp_path):
        """Each row is the total_evals line of `sample --method` under the
        same flags."""
        path = tmp_path / "model.txt"
        save_density(random_density(4, 11), path)
        flags = ("--k", "30", "--s", "200", "--t", "4", "--d", "2",
                 "--schedule", "decay", "--seed", "6", "--model-file", str(path))
        code, text = run_cli(tmp_path, "cost", *flags)
        assert code == 0
        rows = [ln.split(",") for ln in text.splitlines()]
        assert [m for m, _ in rows] == ["rejection", "daas+ula", "daas+mala", "daas"]
        for method, evals in rows:
            code, out = run_cli(tmp_path, "sample", "--method", method, *flags)
            assert code == 0
            assert f" total_evals={evals}\n" in out


class TestCommandTable:
    @pytest.mark.parametrize("command,result,text", [
        ("sample", SampleBatch(np.array([0.5, -0.25]), seed=3),
         "# seed=3 S=2\n# pdf_evals=0 score_evals=0 total_evals=0\n"
         "0.5\n-0.25\n"),
        ("convergence", [(16, 0, 1, 0.1 + 0.2, 2 / 3)],
         "16,0,1,0.30000000000000004,0.66666666666666663\n"),
        ("refinement", [(0, "daas", 0.5), (1, "ula", 1 / 3)],
         "0,daas,0.5\n1,ula,0.33333333333333331\n"),
        ("cost", [("rejection", 7), ("daas", 5)], "rejection,7\ndaas,5\n"),
    ], ids=["sample", "convergence", "refinement", "cost"])
    def test_main_runs_the_module_runner(self, monkeypatch, tmp_path,
                                         command, result, text):
        # the runner is looked up when main runs, so a function rebound on
        # the module (as a tracer rebinds cli.run_sample) is the one called
        calls = []

        def runner(cfg):
            calls.append(cfg)
            return result

        monkeypatch.setattr(cli, f"run_{command}", runner)
        code, out = run_cli(tmp_path, command, "--seed", "9")
        assert code == 0
        assert [c.seed for c in calls] == [9]
        assert out == text


class TestModelFileBoundary:
    @pytest.mark.parametrize("text", [
        "1 1 0\nnan 0\n1 0\n",
        "1 1 0\n1 inf\n1 0\n",
        "1 nan 0\n1 0\n1 0\n",
        "1 1 inf\n1 0\n1 0\n",
    ])
    def test_non_finite_model_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "bad.model"
        path.write_text(text)
        code, out = run_cli(
            tmp_path, "sample", "--model-file", str(path), "--n", "1",
            "--k", "7", "--s", "10",
        )
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["daas", "inverse"])
    def test_overflowing_normalization_exits_2(self, tmp_path, capsys,
                                               method):
        # finite amplitudes whose c_0 = sum |a_k|^2 overflows to inf; the
        # error line is all that is printed, with no numpy warning before it
        path = tmp_path / "huge.model"
        path.write_text("1 1 0\n1e200 0\n1e200 0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run_cli(
                tmp_path, "sample", "--model-file", str(path), "--k", "7",
                "--method", method, "--s", "10",
            )
        assert code == 2
        assert out == ""
        assert capsys.readouterr().err == (
            f"error: {path}: normalization constant c_0 = sum |a_k|^2 "
            "overflows; rescale the amplitudes\n"
        )

    @pytest.mark.parametrize("text", [
        "",
        "\n\n",
        "1 1\n1 0\n1 0\n",
        "1 1 0\n1\n1 0\n",
        "one 1 0\n1 0\n1 0\n",
        "1 1 0\n1 zero\n1 0\n",
    ])
    def test_malformed_model_file_exits_2(self, tmp_path, text):
        path = tmp_path / "bad.model"
        path.write_text(text)
        code, _ = run_cli(
            tmp_path, "sample", "--model-file", str(path), "--n", "1",
            "--k", "7", "--s", "10",
        )
        assert code == 2

    def test_k_checked_against_file_n(self, tmp_path):
        # config n defaults to 10 (minimum k 21); the file's N=1 needs k >= 3
        path = tmp_path / "cos.model"
        save_density(FourierDensity([1.0, 1.0]), path)
        code, text = run_cli(
            tmp_path, "sample", "--model-file", str(path), "--k", "7",
            "--s", "10",
        )
        assert code == 0
        assert "# seed=0 K=7 D=1 S=10" in text

    def test_k_below_file_n_exits_2(self, tmp_path):
        path = tmp_path / "model.txt"
        save_density(random_density(5, 0), path)
        code, _ = run_cli(
            tmp_path, "sample", "--model-file", str(path), "--n", "1",
            "--k", "7", "--s", "10",
        )
        assert code == 2


class TestInverseBilling:
    def test_cdf_points_billed(self, tmp_path):
        code, text = run_cli(
            tmp_path, "sample", "--method", "inverse", "--n", "3", "--k", "7",
            "--s", "10",
        )
        assert code == 0
        evals = 10 * math.ceil(math.log2(2 / 1e-10))
        assert f"# pdf_evals={evals} score_evals=0 total_evals={evals}" in text


class TestExitCodes:
    def test_reader_closing_stdout_early(self):
        # `circfourier sample ... | head -1`: the rest of the rows hit a
        # closed pipe, which ends the run quietly
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.Popen(
            [sys.executable, "-m", "circfourier.cli", "sample", "--n", "3",
             "--k", "7", "--s", "200000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        assert proc.stdout.readline().startswith(b"# seed=0")
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert err == b""

    def test_success(self, tmp_path):
        code, _ = run_cli(tmp_path, "cost", "--n", "2", "--k", "5", "--s", "10")
        assert code == 0

    def test_config_error(self, tmp_path):
        code, _ = run_cli(tmp_path, "sample", "--n", "-1")
        assert code == 2

    def test_missing_config_file(self, tmp_path):
        code, _ = run_cli(tmp_path, "sample", "--config", "/nonexistent.cfg")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["sample", "--n", "5", "--k", "4294967296"],
        ["sample", "--method", "rejection", "--n", "5", "--s", "100000000000"],
    ])
    def test_out_of_memory_exits_2(self, argv):
        # The child caps its own address space at 4 GiB before numpy is
        # imported, so the grid of 2^32 points, or the 10^11 samples, fail
        # to allocate there and nowhere else.
        script = (
            "import resource, sys\n"
            "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
            "cap = 4 << 30\n"
            "if hard != resource.RLIM_INFINITY:\n"
            "    cap = min(cap, hard)\n"
            "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
            "from circfourier.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path),
                   OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, env=env, timeout=120)
        assert proc.returncode == 2, proc.stderr.decode()
        assert proc.stderr.startswith(b"error: out of memory"), proc.stderr


def _csv(lists):
    return lists.map(lambda v: ",".join(map(str, v)))


# Valid values for every flag; one flag at a time may take an odd value.
_FLAGS = {
    "--seed": st.integers(0, 2**32),
    "--n": st.integers(0, 8),
    "--k": st.integers(1, 40),
    "--d": st.integers(0, 2),
    "--s": st.integers(1, 64),
    "--t": st.integers(0, 3),
    "--eps-ula": st.sampled_from([1e-5, 1e-3, 0.5, 1.0]),
    "--eps-mala": st.sampled_from([1e-5, 1e-3, 0.5, 1.0]),
    "--schedule": st.sampled_from(SCHEDULES),
    "--method": st.sampled_from(METHODS),
    "--trials": st.integers(1, 2),
    "--k-sweep": _csv(st.lists(st.integers(1, 40), min_size=1, max_size=3,
                               unique=True).map(sorted)),
    "--t-sweep": _csv(st.lists(st.integers(0, 3), max_size=3)),
    "--degrees": _csv(st.lists(st.integers(0, 2), min_size=1, max_size=3,
                               unique=True).map(sorted)),
    "--tol": st.sampled_from([1e-10, 1e-3, 0.5, 1.5, 5e-324]),
}
_ODD = ["-1", "0", "2", "3", "inf", "nan", "-inf", "", "x", "1,1", "2,-1",
        "linear", "1e300"]
# None: no model file; int: a valid file of that many terms; bytes: any file
_MODEL_FILES = st.one_of(st.none(), st.integers(0, 8), st.binary(max_size=40))


class TestFuzzMain:
    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(["sample", "convergence", "refinement", "cost"]),
        values=st.fixed_dictionaries(_FLAGS),
        odd=st.one_of(st.none(), st.tuples(st.sampled_from(list(_FLAGS)),
                                           st.sampled_from(_ODD))),
        model=_MODEL_FILES,
    )
    def test_exit_code_contract(self, command, values, odd, model):
        """Any small config and any model file: main returns 0, 2 or 3."""
        if odd is not None:
            values[odd[0]] = odd[1]
        with tempfile.TemporaryDirectory() as tmp:
            argv = [command, "--output", os.path.join(tmp, "out.csv")]
            for flag, value in values.items():
                argv += [flag, str(value)]
            if model is not None:
                path = os.path.join(tmp, "model.txt")
                if isinstance(model, int):
                    save_density(random_density(model, 0), path)
                else:
                    with open(path, "wb") as fh:
                        fh.write(model)
                argv += ["--model-file", path]
            assert main(argv) in (0, 2, 3)
