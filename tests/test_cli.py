import builtins
import csv
import glob
import json
import os
import platform
import re

import numpy as np
import pytest

from conftest import BAD_CUSTOM_GAMES
from mfgsolve import cli
from mfgsolve.envs import make_lr
from mfgsolve.errors import ConfigError

REPO = os.path.join(os.path.dirname(__file__), os.pardir)
SHIPPED_CONFIGS = sorted(glob.glob(os.path.join(REPO, "configs", "*.json"))) + [
    os.path.join(REPO, "perfbench", "configs", "taxi_bench.json")
]


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
        "keys",
        [
            {"fp_policy": True},
            {"fp_meanfield": True},
            {"fp_policy": True, "fp_meanfield": True},
        ],
    )
    def test_dqn_rejects_fictitious_play(self, tmp_path, capsys, keys):
        # The learned loop has no fictitious play; a run must not drop these
        # keys silently.
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg, env="rps", solver="boltzmann_dqn", eta_grid=[0.5], seeds=[0],
            **keys,
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

    @pytest.mark.parametrize("doc", [[1, 2], "x", 3])
    def test_config_not_an_object(self, tmp_path, capsys, doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert cli.main(["validate", str(cfg)]) == 1
        assert "JSON object" in capsys.readouterr().err
        assert cli.main(["run", str(cfg)]) == 1

    def test_exact_needs_no_grid(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, solver="exact", eta_grid=None)
        assert cli.main(["validate", str(cfg)]) == 0


SMALL_TAXI = {
    "env": "taxi", "solver": "boltzmann_dqn", "eta_grid": [0.1], "seeds": [0],
    "iterations": 1, "particles": {"num_meanfields": 1, "num_particles": 10},
    "eval_episodes": 2, "dqn": {"epochs": 2, "hidden_width": 8},
}
SMALL_RPS_DQN = {
    "env": "rps", "solver": "boltzmann_dqn", "eta_grid": [0.5], "seeds": [0],
    "iterations": 3, "particles": {"num_meanfields": 1, "num_particles": 20},
    "dqn": {"epochs": 2, "hidden_width": 8},
}
PRIOR_DESCENT = {"outer": 2, "inner": 5, "c": 1.0}
TWO_STATE = {
    "name": "twostate",
    "horizon": 3,
    "num_states": 2,
    "num_actions": 2,
    "initial_dist": [1.0, 0.0],
    "reward": {
        "base": [[0.0, 0.0], [0.0, 0.0]],
        "mu_coef": [[[-1.0, 0.0], [-1.0, 0.0]], [[0.0, -1.0], [0.0, -1.0]]],
    },
    "transition": {"base": [[[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]]]},
}

# Mistakes that a solver, particle or DQN constructor, the prior loader or
# the key check rejects; both verbs must exit 1 before any cell runs.
# Value: (overrides, prior file contents or None, fragment of the problem,
# or a tuple of fragments).
MISCONFIGURED = {
    "boltzmann_eta_zero": ({"eta_grid": [0.0]}, None, "temperature"),
    "prior_descent_c_below_one": (
        {"prior_descent": {**PRIOR_DESCENT, "c": 0.5}}, None, "c must be >= 1"
    ),
    "prior_descent_inner_zero": (
        {"prior_descent": {**PRIOR_DESCENT, "inner": 0}}, None, "max_iterations"
    ),
    "negative_convergence_tol": ({"convergence_tol": -1}, None, "convergence_tol"),
    "zero_window": ({"window": 0}, None, "window"),
    "zero_replicates": (
        {**SMALL_TAXI, "particles": {"num_meanfields": 0, "num_particles": 10}},
        None,
        "replicate",
    ),
    "tabular_prior_with_zero": (
        {"env": "lr"}, [[[1.0, 0.0]] * 3] * 2, "strictly positive"
    ),
    "taxi_prior_with_zero": (SMALL_TAXI, [0.0, 0.25, 0.25, 0.25, 0.25], "strictly positive"),
    "taxi_zero_eval_episodes": ({**SMALL_TAXI, "eval_episodes": 0}, None, "eval_episodes"),
    # Reading a directory used to be a runtime failure (exit 2).
    "taxi_map_directory": ({**SMALL_TAXI, "taxi_map": REPO}, None, "taxi map"),
    "unknown_top_level_key": ({"iteration": 5}, None, "'iteration'"),
    "prior_descent_eta0": (
        {"prior_descent": {**PRIOR_DESCENT, "eta0": 2.0}}, None, "'eta0'"
    ),
    "particles_seed": (
        {**SMALL_TAXI, "particles": {"num_meanfields": 1, "num_particles": 10, "seed": 3}},
        None,
        "seed",
    ),
    "non_integer_seed": ({**SMALL_TAXI, "seeds": ["a"]}, None, "seeds"),
    "non_integer_iterations": ({"iterations": "5"}, None, "iterations"),
    "non_integer_workers": ({"workers": "2"}, None, "workers"),
    "scalar_eta_grid": ({"eta_grid": 1.0}, None, "eta_grid"),
    # eta 0 is the learned loop's greedy run; nan and inf are no temperature.
    "dqn_eta_nan": ({**SMALL_RPS_DQN, "eta_grid": [float("nan")]}, None, "eta_grid"),
    "dqn_eta_inf": ({**SMALL_RPS_DQN, "eta_grid": [float("inf")]}, None, "eta_grid"),
    "dqn_zero_window": ({**SMALL_RPS_DQN, "window": 0}, None, "window"),
    "dqn_negative_convergence_tol": (
        {**SMALL_RPS_DQN, "convergence_tol": -1}, None, "convergence_tol"
    ),
    # Counts must be integers and reals must not be NaN, checked where the
    # config objects are built.
    "dqn_fractional_epochs": ({**SMALL_RPS_DQN, "dqn": {"epochs": 2.5}}, None, "epochs"),
    # Exploration rates are probabilities and the discount a factor; 1 is valid.
    "dqn_epsilon_above_one": (
        {**SMALL_RPS_DQN, "dqn": {"epsilon_start": 1.5}}, None, "epsilon_start"
    ),
    "dqn_discount_above_one": ({**SMALL_RPS_DQN, "dqn": {"discount": 1.5}}, None, "discount"),
    "dqn_learning_rate_nan": (
        {**SMALL_RPS_DQN, "dqn": {"learning_rate": float("nan")}}, None, "learning_rate"
    ),
    "fractional_replicates": (
        {**SMALL_TAXI, "particles": {"num_meanfields": 1.5, "num_particles": 10}},
        None,
        "num_meanfields",
    ),
    "prior_descent_fractional_outer": (
        {"prior_descent": {**PRIOR_DESCENT, "outer": 1.5}}, None, "outer_iterations"
    ),
    "prior_descent_fractional_inner": (
        {"prior_descent": {**PRIOR_DESCENT, "inner": 2.5}}, None, "max_iterations"
    ),
    "prior_descent_c_nan": (
        {"prior_descent": {**PRIOR_DESCENT, "c": float("nan")}}, None, "c must be >= 1"
    ),
    # A bool or +-inf is no number; the DQN cell's config is built by
    # validate as a tabular cell's is.
    "eta_grid_bool": ({"eta_grid": [True]}, None, "eta_grid"),
    "convergence_tol_inf": ({"convergence_tol": float("inf")}, None, "convergence_tol"),
    "dqn_convergence_tol_bool": (
        {**SMALL_RPS_DQN, "convergence_tol": True}, None, "convergence_tol"
    ),
    # A repeated entry used to run its cells twice and count them twice in
    # the summary; 1 and 1.0 are one temperature.
    "duplicate_eta": ({"eta_grid": [1, 1.0, 2.0]}, None, "eta_grid must be distinct"),
    "duplicate_seed": ({"seeds": [0, 0]}, None, "seeds must be distinct"),
    # Every key present is checked whatever the solver, and a key that the
    # run does not read must be absent or hold its default.
    "exact_unread_eta_grid": (
        {"env": "lr", "solver": "exact", "eta_grid": ["x", -1], "seeds": [0]},
        None,
        ("eta_grid[0]", "eta_grid is not read by solver 'exact'"),
    ),
    "boltzmann_unread_dqn_keys": (
        {"env": "lr", "eval_episodes": 0, "particles": {"bogus": 1}, "dqn": {"nope": 2},
         "taxi_map": "/nonexistent"},
        None,
        ("eval_episodes must be >= 1", "'bogus'", "'nope'", "taxi_map is not read"),
    ),
    # A tabular learned run's exploitability is exact: it reads no rollouts.
    "dqn_unread_eval_episodes": (
        {**SMALL_RPS_DQN, "eval_episodes": 2000}, None, "eval_episodes is not read"
    ),
    "dqn_unread_prior_descent": (
        {**SMALL_RPS_DQN, "prior_descent": PRIOR_DESCENT}, None, "prior_descent is not read"
    ),
    # Under prior_descent, iterations is the total budget, and the phases'
    # outer * inner iterations must fit in it unless it holds its default.
    "prior_descent_over_budget": (
        {"prior_descent": PRIOR_DESCENT, "iterations": 9}, None, "runs 10 iterations, more than"
    ),
    # "no" used to turn policy averaging on; an int output_dir failed at
    # run time, and a taxi_map of 1 or true was opened as file descriptor 1.
    "fp_policy_not_a_bool": ({"fp_policy": "no"}, None, "fp_policy must be true or false"),
    "fp_meanfield_not_a_bool": ({"fp_meanfield": 1}, None, "fp_meanfield must be true or false"),
    "output_dir_not_a_path": ({"output_dir": 5}, None, "output_dir must be a path"),
    "taxi_map_int": ({**SMALL_TAXI, "taxi_map": 1}, None, "taxi_map must be null or a path"),
    "taxi_map_bool": ({**SMALL_TAXI, "taxi_map": True}, None, "taxi_map must be null or a path"),
}


class TestValidateBuildsEveryCell:
    @pytest.mark.parametrize("case", sorted(MISCONFIGURED))
    def test_mistake_is_a_config_error(self, tmp_path, capsys, case):
        overrides, prior, fragments = MISCONFIGURED[case]
        fragments = (fragments,) if isinstance(fragments, str) else fragments
        if prior is not None:
            path = tmp_path / "prior.json"
            path.write_text(json.dumps(prior))
            overrides = {**overrides, "prior": f"from_file:{path}"}
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **overrides)
        assert cli.main(["validate", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert all(fragment in out for fragment in fragments), out
        assert cli.main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert all(fragment in err for fragment in fragments), err
        assert not (tmp_path / "results").exists()

    def test_run_cell_raises_the_plan_problems(self):
        cfg = cli.resolve_config(
            {"env": "toy_lr", "solver": "boltzmann", "eta_grid": [1.0, 1], "seeds": [0],
             "iterations": 0}
        )
        with pytest.raises(ConfigError, match="distinct.*; iterations"):
            cli.run_cell(cfg, 1.0, 0)

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
    def test_shipped_config_validates(self, path, capsys):
        assert cli.main(["validate", path]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=os.path.basename)
    def test_resolved_config_validates(self, path, tmp_path, capsys):
        # A manifest holds the resolved config, every default included, so the
        # keys that a run does not read are present there at their defaults.
        with open(path) as f:
            doc = json.load(f)
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"config": cli.resolve_config(doc)}))
        assert cli.main(["validate", str(manifest)]) == 0
        assert capsys.readouterr().out.strip() == "ok"

    def test_readme_names_every_key_and_default(self):
        # README's table of config keys has one row per schema row, in its
        # order, with its default ("required" where it has none).
        with open(os.path.join(REPO, "README.md")) as f:
            rows = re.findall(r"^\| `(\w+)` \| (required|`[^|]*`) \|", f.read(), re.M)
        assert [key for key, _ in rows] == list(cli._SCHEMA)
        defaults = {key: json.loads(d.strip("`")) for key, d in rows if d != "required"}
        assert defaults == cli.resolve_config({})


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
        # A tabular cell does not depend on its seed: no spread across seeds.
        assert [row[6] for row in summary[1:]] == ["0.0", "0.0"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["env"] == "toy_lr"
        assert manifest["failures"] == []

    def test_summary_standard_error_across_seeds(self, tmp_path):
        # Trailing means 1, 2 and 4 have the sample standard deviation
        # sqrt(7/3), so a standard error of sqrt(7/9); one seed has none.
        def stats(mean):
            return {"mean": mean, "min": mean - 1.0, "max": mean + 1.0, "converged": True}

        results = {(0.5, 0): stats(1.0), (0.5, 1): stats(2.0), (0.5, 2): stats(4.0),
                   (1.0, 0): stats(3.0)}
        cli._write_summary(str(tmp_path / "summary.csv"), results)
        header, *rows = read_csv(tmp_path / "summary.csv")
        assert header[6:] == ["trailing_mean_std_error"]
        assert rows[0][:6] == ["0.5", repr(7 / 3), repr(4 / 3), repr(10 / 3), "3", "3"]
        assert float(rows[0][6]) == pytest.approx(np.sqrt(7 / 9), rel=1e-15)
        assert rows[1] == ["1.0", "3.0", "2.0", "4.0", "1", "1", ""]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_manifest_records_the_environment(self, tmp_path, workers):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, seeds=[0])
        out = tmp_path / "results"
        assert cli.main(["run", str(cfg), "--workers", str(workers)]) == 0
        env = json.loads((out / "manifest.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert isinstance(env["blas"], str) and env["blas"]
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert env["cpus"] == cpus
        assert env["table_threads"] == (max(1, cpus // 2) if workers == 2 else cpus)
        revision = env["git_revision"]
        assert revision == "unknown" or re.fullmatch(r"[0-9a-f]{40}", revision)

    def test_git_revision_follows_head(self, tmp_path, monkeypatch):
        # HEAD names a branch whose ref is a loose file or a packed-refs line,
        # or holds the revision itself; without a .git it is "unknown".
        package = tmp_path / "src" / "mfgsolve"
        package.mkdir(parents=True)
        monkeypatch.setattr(cli, "__file__", str(package / "cli.py"))
        assert cli._git_revision() == "unknown"
        git = tmp_path / ".git"
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "HEAD").write_text("ref: refs/heads/main\n")
        (git / "packed-refs").write_text("# pack-refs\n" + "b" * 40 + " refs/heads/main\n")
        assert cli._git_revision() == "b" * 40
        (git / "refs" / "heads" / "main").write_text("a" * 40 + "\n")
        assert cli._git_revision() == "a" * 40
        (git / "HEAD").write_text("c" * 40 + "\n")
        assert cli._git_revision() == "c" * 40

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
        # Its manifest stores eta_grid as null, which exact accepts.
        assert cli.main(["validate", str(tmp_path / "results" / "manifest.json")]) == 0

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

    @pytest.mark.parametrize("workers", ["-3", "0"])
    def test_workers_flag_below_one(self, tmp_path, capsys, workers):
        # -3 used to run serially and 0 to fall back to the config's value.
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert cli.main(["run", str(cfg), "--workers", workers]) == 1
        assert "--workers" in capsys.readouterr().err
        assert not (tmp_path / "results").exists()

    def test_parallel_taxi_dqn_matches_serial(self, tmp_path):
        # Worker processes send back logs whose final policy holds a trained
        # network, so the network must survive pickling.
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **{**SMALL_TAXI, "seeds": [0, 1]})
        assert cli.main(["run", str(cfg), "--output-dir", str(tmp_path / "serial")]) == 0
        assert cli.main(
            ["run", str(cfg), "--output-dir", str(tmp_path / "parallel"), "--workers", "2"]
        ) == 0
        manifest = json.loads((tmp_path / "parallel" / "manifest.json").read_text())
        assert manifest["failures"] == []
        drop = cli.CSV_COLUMNS.index("elapsed_s")
        for seed in (0, 1):
            name = f"taxi_boltzmann_dqn_eta0.1_seed{seed}.csv"
            a, b = (
                [[c for i, c in enumerate(row) if i != drop]
                 for row in read_csv(tmp_path / d / name)]
                for d in ("serial", "parallel")
            )
            assert a == b

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

    def test_each_file_is_read_once_per_sweep(self, tmp_path, monkeypatch):
        # The game and the prior are loaded once, for validation and every
        # cell alike.
        calls = {"load_custom_env": 0, "_load_prior": 0}

        def counted(name):
            real = getattr(cli, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name))
        env_path = tmp_path / "game.json"
        env_path.write_text(json.dumps(TWO_STATE))
        prior = tmp_path / "prior.json"
        prior.write_text(json.dumps(np.full((3, 2, 2), 0.5).tolist()))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, env=f"custom:{env_path}", prior=f"from_file:{prior}", iterations=3)
        assert cli.run(str(cfg)) == 0
        assert calls == {"load_custom_env": 1, "_load_prior": 1}
        assert len(read_csv(tmp_path / "results" / "summary.csv")) == 3

    def test_custom_env_run(self, tmp_path):
        env_path = tmp_path / "twostate.json"
        env_path.write_text(json.dumps(TWO_STATE))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, env=f"custom:{env_path}", eta_grid=[0.5], seeds=[0], iterations=10)
        assert cli.main(["run", str(cfg)]) == 0
        assert (tmp_path / "results" / "summary.csv").exists()
        assert (tmp_path / "results" / "twostate_boltzmann_eta0.5_seed0.csv").exists()

    def test_dqn_window_and_early_stop(self, tmp_path):
        # Two rps flows lie less than 1 apart in total variation unless their
        # supports are disjoint, so a tolerance of 1 stops the run early.
        cfg = tmp_path / "cfg.json"
        write_config(cfg, **SMALL_RPS_DQN, window=2, convergence_tol=1.0)
        assert cli.main(["run", str(cfg)]) == 0
        out = tmp_path / "results"
        rows = read_csv(out / "rps_boltzmann_dqn_eta0.5_seed0.csv")
        assert 1 <= len(rows) - 1 < SMALL_RPS_DQN["iterations"]
        manifest = json.loads((out / "manifest.json").read_text())
        (cell,) = manifest["cells"].values()
        assert cell["converged"] is True
        assert cell["limit_cycle_period"] == 1
        log = cli.run_cell(cli.load_config(str(cfg)), 0.5, 0)
        assert log.window == 2

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
