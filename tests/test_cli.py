import builtins
import csv
import json

import numpy as np
import pytest

from conftest import BAD_CUSTOM_GAMES
from mfgsolve import cli
from mfgsolve.envs import make_lr


def write_config(path, **overrides):
    doc = {
        "env": "toy_lr",
        "solver": "boltzmann",
        "eta_grid": [1.0, 2.0],
        "seeds": [0, 1],
        "iterations": 25,
        "output_dir": str(path.parent / "results"),
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return doc


def read_csv(path):
    with open(path) as f:
        return list(csv.reader(f))


class TestValidate:
    def test_valid_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert cli.main(["validate", str(cfg)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_missing_eta_grid(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, eta_grid=None)
        assert cli.main(["validate", str(cfg)]) == 1
        assert "eta_grid" in capsys.readouterr().out

    def test_unknown_env(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, env="chess")
        assert cli.main(["validate", str(cfg)]) == 1
        assert "unknown env" in capsys.readouterr().out

    def test_empty_seeds(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, seeds=[])
        assert cli.main(["validate", str(cfg)]) == 1
        assert "seeds" in capsys.readouterr().out

    def test_relent_dqn_combination_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, env="taxi", solver="relent")
        assert cli.main(["validate", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "taxi" in out

    @pytest.mark.parametrize(
        "keys", [("fp_policy",), ("fp_meanfield",), ("fp_policy", "fp_meanfield")]
    )
    def test_dqn_rejects_fictitious_play(self, tmp_path, capsys, keys):
        # The learned loop has no fictitious play; a run must not drop the
        # keys silently.
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg, env="rps", solver="boltzmann_dqn", eta_grid=[0.5], seeds=[0],
            **{key: True for key in keys},
        )
        assert cli.main(["validate", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert all(key in out for key in keys)
        assert cli.main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert all(key in err for key in keys)
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("dqn", [{"epochz": 3}, {"epochs": 0}])
    def test_invalid_dqn_overrides(self, tmp_path, capsys, dqn):
        # An unknown key and a bad value are both config errors.
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg, env="rps", solver="boltzmann_dqn", eta_grid=[0.5], seeds=[0], dqn=dqn
        )
        assert cli.main(["validate", str(cfg)]) == 1
        assert "dqn overrides invalid" in capsys.readouterr().out

    @pytest.mark.parametrize("game", sorted(BAD_CUSTOM_GAMES))
    def test_bad_custom_game(self, tmp_path, capsys, game):
        # Both verbs refuse the game as a config error, before any cell runs.
        env_path = tmp_path / "game.json"
        env_path.write_text(json.dumps(BAD_CUSTOM_GAMES[game]))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, env=f"custom:{env_path}", eta_grid=[0.5], seeds=[0], iterations=3)
        assert cli.main(["validate", str(cfg)]) == 1
        assert str(env_path) in capsys.readouterr().out
        assert cli.main(["run", str(cfg)]) == 1
        assert not (tmp_path / "results").exists()

    def test_exact_needs_no_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, solver="exact", eta_grid=None)
        assert cli.main(["validate", str(cfg)]) == 0


class TestListEnvs:
    def test_prints_builtins(self, capsys):
        assert cli.main(["list-envs"]) == 0
        out = capsys.readouterr().out
        for name in ("lr", "toy_lr", "rps", "sis", "taxi"):
            assert name in out


class TestRun:
    def test_sweep_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        doc = write_config(cfg)
        assert cli.main(["run", str(cfg)]) == 0
        out = tmp_path / "results"
        cells = sorted(p.name for p in out.glob("toy_lr_boltzmann_eta*.csv"))
        assert cells == [
            "toy_lr_boltzmann_eta1_seed0.csv",
            "toy_lr_boltzmann_eta1_seed1.csv",
            "toy_lr_boltzmann_eta2_seed0.csv",
            "toy_lr_boltzmann_eta2_seed1.csv",
        ]
        rows = read_csv(out / cells[0])
        assert rows[0] == list(cli.CSV_COLUMNS)
        assert len(rows) == 1 + doc["iterations"]
        summary = read_csv(out / "summary.csv")
        assert summary[0][0] == "eta"
        assert len(summary) == 3  # header + two temperatures
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["env"] == "toy_lr"
        assert manifest["failures"] == []

    def test_round_trip_from_manifest(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, eta_grid=[1.5], seeds=[3], iterations=15)
        assert cli.main(["run", str(cfg)]) == 0
        out = tmp_path / "results"
        out2 = tmp_path / "rerun"
        assert cli.main(["run", str(out / "manifest.json"), "--output-dir", str(out2)]) == 0
        name = "toy_lr_boltzmann_eta1.5_seed3.csv"
        a = read_csv(out / name)
        b = read_csv(out2 / name)
        drop = cli.CSV_COLUMNS.index("elapsed_s")
        a = [[c for i, c in enumerate(row) if i != drop] for row in a]
        b = [[c for i, c in enumerate(row) if i != drop] for row in b]
        assert a == b

    def test_exact_solver_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, solver="exact", eta_grid=None, seeds=[0], iterations=10)
        assert cli.main(["run", str(cfg)]) == 0
        assert (tmp_path / "results" / "toy_lr_exact_eta0_seed0.csv").exists()

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, seeds=[0], eta_grid=[1.0], iterations=5)
        override = tmp_path / "elsewhere"
        monkeypatch.setenv("MFGSOLVE_OUTPUT_DIR", str(override))
        assert cli.main(["run", str(cfg)]) == 0
        assert (override / "manifest.json").exists()

    def test_invalid_config_exit_code(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, solver="magic")
        assert cli.main(["run", str(cfg)]) == 1

    def test_prior_descent_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            env="lr",
            solver="boltzmann",
            eta_grid=[1.0],
            seeds=[0],
            prior_descent={"outer": 2, "inner": 10, "c": 1.5},
        )
        assert cli.main(["run", str(cfg)]) == 0
        rows = read_csv(tmp_path / "results" / "lr_boltzmann_eta1_seed0.csv")
        assert len(rows) == 1 + 20
        etas = {row[4] for row in rows[1:]}
        assert etas == {"1.0", "1.5"}

    def test_custom_env_run(self, tmp_path):
        env_doc = {
            "name": "twostate",
            "horizon": 3,
            "num_states": 2,
            "num_actions": 2,
            "initial_dist": [1.0, 0.0],
            "reward": {
                "base": [[0.0, 0.0], [0.0, 0.0]],
                "mu_coef": [[[-1.0, 0.0], [-1.0, 0.0]], [[0.0, -1.0], [0.0, -1.0]]],
            },
            "transition": {
                "base": [
                    [[1.0, 0.0], [0.0, 1.0]],
                    [[1.0, 0.0], [0.0, 1.0]],
                ]
            },
        }
        env_path = tmp_path / "twostate.json"
        env_path.write_text(json.dumps(env_doc))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, env=f"custom:{env_path}", eta_grid=[0.5], seeds=[0], iterations=10)
        assert cli.main(["run", str(cfg)]) == 0
        assert (tmp_path / "results" / "summary.csv").exists()
        assert (tmp_path / "results" / "twostate_boltzmann_eta0.5_seed0.csv").exists()

    def test_std_error_column(self, tmp_path):
        # Blank where the exploitability is exact, the estimate's standard
        # error where it is sampled (taxi).
        col = cli.CSV_COLUMNS.index("std_error")
        cfg = tmp_path / "cfg.json"
        write_config(cfg, eta_grid=[1.0], seeds=[0], iterations=3)
        assert cli.main(["run", str(cfg)]) == 0
        rows = read_csv(tmp_path / "results" / "toy_lr_boltzmann_eta1_seed0.csv")
        assert [row[col] for row in rows[1:]] == ["", "", ""]
        write_config(
            cfg, env="taxi", solver="boltzmann_dqn", eta_grid=[0.1], seeds=[0], iterations=2,
            particles={"num_meanfields": 1, "num_particles": 10}, eval_episodes=2,
            dqn={"epochs": 2, "hidden_width": 8},
        )
        assert cli.main(["run", str(cfg)]) == 0
        rows = read_csv(tmp_path / "results" / "taxi_boltzmann_dqn_eta0.1_seed0.csv")
        assert len(rows) == 3
        assert all(np.isfinite(float(row[col])) for row in rows[1:])


def write_config_path(tmp_path, prior):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, env="lr", seeds=[0], eta_grid=[1.0], iterations=5,
                 prior=f"from_file:{prior}")
    return cfg


class TestPriorFile:
    def write_prior(self, tmp_path, shape):
        path = tmp_path / "prior.json"
        path.write_text(json.dumps((np.ones(shape) / shape[-1]).tolist()))
        return path

    def test_matching_prior_runs(self, tmp_path):
        cfg = write_config_path(tmp_path, self.write_prior(tmp_path, (2, 3, 2)))
        assert cli.main(["validate", str(cfg)]) == 0
        assert cli.main(["run", str(cfg)]) == 0

    def test_shape_mismatch_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config_path(tmp_path, self.write_prior(tmp_path, (3, 3, 3)))
        assert cli.main(["validate", str(cfg)]) == 1
        assert "(3, 3, 3)" in capsys.readouterr().out
        assert cli.main(["run", str(cfg)]) == 1

    def test_file_is_closed(self, tmp_path, monkeypatch):
        prior = self.write_prior(tmp_path, (2, 3, 2))
        cfg = cli.load_config(str(write_config_path(tmp_path, prior)))
        opened = []
        real_open = builtins.open

        def tracking_open(*args, **kwargs):
            f = real_open(*args, **kwargs)
            opened.append(f)
            return f

        monkeypatch.setattr(builtins, "open", tracking_open)
        loaded = cli._load_prior(cfg, make_lr())
        monkeypatch.undo()
        assert loaded.per_time_state.shape == (2, 3, 2)
        assert opened and all(f.closed for f in opened)

    def test_taxi_takes_one_action_distribution(self, tmp_path, capsys):
        num_actions = cli.make_taxi().num_actions
        cfg = tmp_path / "cfg.json"
        for shape, code in (((num_actions,), 0), ((2, 3, num_actions), 1)):
            prior = self.write_prior(tmp_path, shape)
            write_config(cfg, env="taxi", solver="boltzmann_dqn", prior=f"from_file:{prior}")
            assert cli.main(["validate", str(cfg)]) == code
        assert f"needs ({num_actions},)" in capsys.readouterr().out
