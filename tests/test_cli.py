import ast
import inspect
import json

import pytest
from click.testing import CliRunner

from psrlab.cli import build_behavior, build_env, main
from psrlab.errors import PsrLabError, StructuralError
from psrlab.policies import UniformActionSeqPolicy
from psrlab.verify import verify


ONLINE_CONFIG = {
    "env": {
        "builtin": "random_revealing",
        "params": {"seed": 1, "n_states": 2, "n_obs": 3, "n_actions": 2, "horizon": 2},
    },
    "candidates": {"mode": "dithered", "seed": 5, "n": 8, "scale": 0.03},
    "seeds": [0],
    "online": {
        "max_iterations": 80,
        "epsilon": 0.2,
        "delta": 0.1,
        "p_min": 1e-09,
        "beta": 5.0,
        "lambda": 1.0,
        "alpha": 0.5,
    },
}

OFFLINE_CONFIG = {
    "env": {"builtin": "near_tie"},
    "candidates": {"mode": "include_true"},
    "behavior": {"type": "uniform_action_seq", "sequences": [[], [1], [1, 0], [1, 1]]},
    "seeds": [0, 1],
    "offline": {"n_episodes": 60, "p_min": 1e-12, "beta": 5.0, "lambda": 0.5, "alpha": 1.6},
}


@pytest.fixture()
def runner():
    return CliRunner()


def test_gen_env_round_trip(tmp_path, runner):
    out = tmp_path / "env.json"
    result = runner.invoke(
        main, ["gen-env", "--name", "tiger", "--params", '{"horizon": 2}', "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    env = build_env({"path": str(out)})
    assert env.n_states == 2 and env.space.horizon == 2


def test_run_online_outputs(tmp_path, runner):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(ONLINE_CONFIG))
    out = tmp_path / "out"
    result = runner.invoke(main, ["run-online", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    logs = (out / "logs_seed0.csv").read_text().splitlines()
    assert logs[0] == "k,ucb_value,feasible_size,candidate_id"
    summary = json.loads((out / "summary_seed0.json").read_text())
    assert summary["seed"] == 0
    assert set(summary["params"]) >= {"p_min", "beta", "lambda", "alpha"}
    if summary["terminated"]:
        assert (out / "model_seed0.json").exists()
        assert (out / "policy_seed0.json").exists()
        assert summary["gap"] is not None


def test_run_online_auto_params(tmp_path, runner, monkeypatch):
    import psrlab.cli

    ranks = []
    original = psrlab.cli._env_rank
    monkeypatch.setattr(psrlab.cli, "_env_rank", lambda env: ranks.append(env) or original(env))
    cfg_data = json.loads(json.dumps(ONLINE_CONFIG))
    cfg_data["seeds"] = [0, 1]
    cfg_data["online"] = {
        "max_iterations": 4,
        "epsilon": 0.2,
        "delta": 0.1,
        "auto_params": True,
        "c_theory": 0.01,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    out = tmp_path / "out"
    result = runner.invoke(main, ["run-online", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert len(ranks) == 1  # the instance constants are computed once per command
    for seed in cfg_data["seeds"]:
        summary = json.loads((out / f"summary_seed{seed}.json").read_text())
        assert summary["params"]["c_theory"] == 0.01
        assert summary["params"]["lambda"] > 0


def test_run_offline_outputs(tmp_path, runner):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(OFFLINE_CONFIG))
    out = tmp_path / "out"
    result = runner.invoke(main, ["run-offline", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "K,seed,gap,lcb_value,iota,c_infinity"
    assert len(rows) == 3
    summary = json.loads((out / "summary_seed1.json").read_text())
    assert summary["K"] == 60


def test_run_offline_auto_params_computes_coverage_once_per_run(tmp_path, runner, monkeypatch):
    import sys

    import psrlab.cli
    import psrlab.offline

    calls = {"min_exploration_prob": 0, "coverage_coefficient": 0, "_env_rank": 0}
    for name in calls:
        original = getattr(psrlab.cli if name == "_env_rank" else psrlab.offline, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("psrlab") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)
    cfg_data = json.loads(json.dumps(OFFLINE_CONFIG))
    cfg_data["offline"] = {"n_episodes": 60, "auto_params": True, "delta": 0.1, "c_theory": 0.01}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    out = tmp_path / "out"
    result = runner.invoke(main, ["run-offline", "--config", str(cfg), "--out", str(out)])
    assert result.exit_code == 0, result.output
    seeds = cfg_data["seeds"]
    assert len(seeds) > 1
    assert calls == {"min_exploration_prob": 1, "coverage_coefficient": 1, "_env_rank": 1}  # once per command
    rows = (out / "results.csv").read_text().splitlines()
    assert rows[0] == "K,seed,gap,lcb_value,iota,c_infinity"
    assert len(rows) == 1 + len(seeds)
    for seed in seeds:
        summary = json.loads((out / f"summary_seed{seed}.json").read_text())
        params = summary["params"]
        assert params["mode"] == "offline" and params["c_theory"] == 0.01
        assert summary["iota"] == params["iota"] > 0
        assert summary["c_infinity"] == params["coverage"] >= 1.0
        assert (out / f"model_seed{seed}.json").exists() and (out / f"policy_seed{seed}.json").exists()


def test_sweep_offline_medians(tmp_path, runner):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(OFFLINE_CONFIG))
    out = tmp_path / "out"
    result = runner.invoke(
        main,
        ["sweep-offline", "--config", str(cfg), "--out", str(out), "--k-list", "30,60", "--seeds", "3"],
    )
    assert result.exit_code == 0, result.output
    medians = json.loads((out / "medians.json").read_text())
    assert set(medians) == {"30", "60"}


def test_verify_cli_exit_codes(runner):
    result = runner.invoke(main, ["verify", "--suite", "lemmas", "--seeds", "10"])
    assert result.exit_code == 0, result.output
    assert "PASS lemmas/tv-hellinger" in result.output
    assert any(line.startswith("suite lemmas: ") and line.endswith(" s") for line in result.output.splitlines())


def test_report_command(tmp_path, runner):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(OFFLINE_CONFIG))
    out = tmp_path / "out"
    runner.invoke(main, ["run-offline", "--config", str(cfg), "--out", str(out)])
    result = runner.invoke(main, ["report", "--out", str(out)])
    assert result.exit_code == 0
    assert "K=60" in result.output


@pytest.mark.parametrize(
    "name,text,named",
    [
        ("summary_seed0.json", "{bad", "cannot read summary"),
        ("summary_seed0.json", "[1,2]", "must hold a JSON object"),
        ("summary_seed0.json", '{"gap": "x"}', "must be a number"),
        ("results.csv", "seed,gap\n0,0.5\n", "row 1 needs an integer K"),
        ("results.csv", "K,seed\n60,0\n", "row 1 needs an integer K"),
        ("results.csv", "K,seed,gap\n60,0,0.5\n60,1,x\n", "row 2 needs an integer K"),
        ("results.csv", "K,seed,gap\n60,0\n", "row 1 needs an integer K"),
        ("summary_seed0.json", '{"terminated": "false", "gap": 0.1}', "must be true or false"),
        ("results.csv", b"K,seed,gap\n60,0,\xff\xfe\n", "cannot read"),
        ("summary_seed0.json", '{"gap": NaN, "terminated": true}', "must be finite"),
        ("summary_seed0.json", '{"gap": Infinity, "terminated": true}', "must be finite"),
        ("results.csv", "K,seed,gap\n60,0,0.5\n60,1,nan\n", "row 2 has a gap that is not finite"),
    ],
)
def test_report_on_malformed_artifacts_prints_one_line(tmp_path, runner, name, text, named):
    if isinstance(text, bytes):
        (tmp_path / name).write_bytes(text)
    else:
        (tmp_path / name).write_text(text)
    result = runner.invoke(main, ["report", "--out", str(tmp_path)])
    assert result.exit_code == 1, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    assert named in lines[0] and str(tmp_path / name) in lines[0]


def test_build_behavior_variants(reference_env):
    assert isinstance(build_behavior("uniform", reference_env.space), UniformActionSeqPolicy)
    pol = build_behavior({"type": "uniform_action_seq", "sequences": [[0], [1]]}, reference_env.space)
    assert pol == UniformActionSeqPolicy(reference_env.space.n_actions, 1, ((0,), (1,)))  # the defaults


def test_package_error_prints_one_line(tmp_path, runner):
    cfg_data = json.loads(json.dumps(ONLINE_CONFIG))
    cfg_data["env"] = {"builtin": "no_such_env"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    args = ["run-online", "--config", str(cfg), "--out", str(tmp_path / "out")]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert result.output.strip().splitlines() == ["Error: unknown builtin environment 'no_such_env'"]
    assert "Traceback" not in result.output
    with pytest.raises(PsrLabError, match="no_such_env"):
        main.main(args=args, prog_name="psrlab", standalone_mode=False)


def test_verify_rejects_nonpositive_seeds(runner):
    result = runner.invoke(main, ["verify", "--suite", "mle-events", "--seeds", "0"])
    assert result.exit_code == 2
    assert "Traceback" not in result.output and "--seeds" in result.output
    with pytest.raises(StructuralError, match="seed"):
        verify("mle-events", 0)


@pytest.mark.parametrize(
    "params,message",
    [
        ('{"horizon": 2, "bogus": 1}', "Error: bad parameters for builtin environment 'tiger'"),
        ('{"horizon": 2', "Error: --params for builtin environment 'tiger' is not valid JSON"),
    ],
)
def test_gen_env_bad_params_print_one_line(tmp_path, runner, params, message):
    out = tmp_path / "env.json"
    result = runner.invoke(main, ["gen-env", "--name", "tiger", "--params", params, "--out", str(out)])
    assert result.exit_code == 1
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), result.output
    assert not out.exists()


def test_gen_env_into_a_missing_directory_prints_one_line(tmp_path, runner):
    out = tmp_path / "missing" / "env.json"
    result = runner.invoke(main, ["gen-env", "--name", "tiger", "--params", '{"horizon": 2}', "--out", str(out)])
    assert result.exit_code == 1
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"Error: cannot write environment file {str(out)!r}"), result.output


def test_build_env_bad_params_is_package_error():
    with pytest.raises(PsrLabError, match="'near_tie'"):
        build_env({"builtin": "near_tie", "params": {"horizon": 3}})


def _one_error_line(runner, tmp_path, command, cfg_data, *options):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    result = runner.invoke(main, [command, "--config", str(cfg), "--out", str(tmp_path / "out"), *options])
    assert result.exit_code == 1, result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: "), result.output
    assert "Traceback" not in result.output
    return lines[0]


@pytest.mark.parametrize(
    "command,cfg_data",
    [("run-online", ONLINE_CONFIG), ("run-offline", OFFLINE_CONFIG), ("sweep-offline", OFFLINE_CONFIG)],
)
def test_out_naming_a_file_prints_one_line(tmp_path, runner, command, cfg_data):
    (tmp_path / "out").write_text("")
    line = _one_error_line(runner, tmp_path, command, cfg_data)
    assert line.startswith(f"Error: cannot create output directory {str(tmp_path / 'out')!r}"), line


@pytest.mark.parametrize(
    "behavior,named",
    [
        ({"type": "deterministic_tree"}, "missing key 'actions'"),
        ({"type": "deterministic_tree", "actions": [[0.5, 0], [0] * 8]}, "need integers"),
        ({"type": "deterministic_tree", "actions": 3}, "deterministic_tree"),
        ({"type": "uniform_action_seq"}, "missing key 'sequences'"),
        ({"type": "uniform_action_seq", "sequences": [[0, "x"]]}, "'sequences'"),
        ({"type": "uniform_action_seq", "sequences": [[]], "start_step": 1.5}, "'start_step'"),
        ({"type": "composite", "switch_step": 2, "prefix": {"type": "uniform_action_seq", "sequences": [[]]}},
         "missing key 'suffix'"),
        ({"sequences": [[]]}, "policy type None"),
        ([[0], [1]], "must be an object"),
    ],
)
def test_bad_behavior_prints_one_line(tmp_path, runner, behavior, named):
    cfg_data = json.loads(json.dumps(OFFLINE_CONFIG))
    cfg_data["behavior"] = behavior
    assert named in _one_error_line(runner, tmp_path, "run-offline", cfg_data)


@pytest.mark.parametrize(
    "command,config,option,value",
    [
        ("run-online", ONLINE_CONFIG, "--seeds", "a,b"),
        ("run-offline", OFFLINE_CONFIG, "--seeds", "0,x"),
        ("sweep-offline", OFFLINE_CONFIG, "--k-list", "10,x"),
        ("sweep-offline", OFFLINE_CONFIG, "--seeds", "two"),
    ],
)
def test_bad_integer_list_prints_one_line(tmp_path, runner, command, config, option, value):
    line = _one_error_line(runner, tmp_path, command, config, option, value)
    assert option in line and repr(value) in line


def test_unknown_candidates_key_prints_one_line(tmp_path, runner):
    cfg_data = json.loads(json.dumps(ONLINE_CONFIG))
    cfg_data["candidates"]["bogus"] = 1
    line = _one_error_line(runner, tmp_path, "run-online", cfg_data)
    assert "'bogus'" in line and "'candidates'" in line


@pytest.mark.parametrize(
    "command,config,section",
    [("run-online", ONLINE_CONFIG, "online"), ("sweep-offline", OFFLINE_CONFIG, "offline")],
)
@pytest.mark.parametrize("key", ["p_min", "beta", "lambda", "alpha"])
def test_missing_parameter_key_prints_one_line(tmp_path, runner, command, config, section, key):
    cfg_data = json.loads(json.dumps(config))
    del cfg_data[section][key]
    line = _one_error_line(runner, tmp_path, command, cfg_data)
    assert f"{key!r}" in line and f"{section!r}" in line


@pytest.mark.parametrize(
    "command,config,section,key",
    [
        ("run-online", ONLINE_CONFIG, "online", "max_iterations"),
        ("run-online", ONLINE_CONFIG, "online", "epsilon"),
        ("run-online", ONLINE_CONFIG, "online", "delta"),
        ("run-offline", OFFLINE_CONFIG, "offline", "n_episodes"),
    ],
)
def test_missing_section_key_prints_one_line(tmp_path, runner, command, config, section, key):
    cfg_data = json.loads(json.dumps(config))
    del cfg_data[section][key]
    line = _one_error_line(runner, tmp_path, command, cfg_data)
    assert f"{key!r}" in line and f"{section!r}" in line


@pytest.mark.parametrize(
    "command,config,key",
    [
        ("run-online", ONLINE_CONFIG, "env"),
        ("run-online", ONLINE_CONFIG, "online"),
        ("run-offline", OFFLINE_CONFIG, "env"),
        ("run-offline", OFFLINE_CONFIG, "offline"),
        ("sweep-offline", OFFLINE_CONFIG, "env"),
        ("sweep-offline", OFFLINE_CONFIG, "offline"),
    ],
)
def test_missing_top_level_key_prints_one_line(tmp_path, runner, command, config, key):
    cfg_data = json.loads(json.dumps(config))
    del cfg_data[key]
    line = _one_error_line(runner, tmp_path, command, cfg_data)
    assert f"missing top-level key {key!r}" in line


@pytest.mark.parametrize(
    "command,config,section",
    [("run-online", ONLINE_CONFIG, "online"), ("run-offline", OFFLINE_CONFIG, "offline"),
     ("sweep-offline", OFFLINE_CONFIG, "offline")],
)
def test_unknown_section_key_prints_one_line(tmp_path, runner, command, config, section):
    cfg_data = json.loads(json.dumps(config))
    cfg_data[section]["epsilom"] = 0.1
    line = _one_error_line(runner, tmp_path, command, cfg_data)
    assert "'epsilom'" in line and f"{section!r}" in line and "'p_min'" in line


@pytest.mark.parametrize("name", ["offline_sweep.json", "online_decay.json", "online_reference.json"])
def test_checked_in_configs_pass_the_section_checks(name):
    from pathlib import Path

    from psrlab.cli import _load_config, _section

    config = _load_config(Path(__file__).resolve().parents[1] / "configs" / name)
    section = "online" if name.startswith("online") else "offline"
    required = ("max_iterations", "epsilon", "delta") if section == "online" else ("n_episodes",)
    assert _section(config, section, required) is config[section]
    assert "env" in config


def _keys_read(function: ast.FunctionDef, names: set[str]) -> set[str]:
    """String keys the function looks up in a dict named in ``names``: ``d[k]``, ``d.get(k)``, ``k in d``."""
    keys = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name) and node.value.id in names:
            keys.add(node.slice)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get"
              and isinstance(node.func.value, ast.Name) and node.func.value.id in names and node.args):
            keys.add(node.args[0])
        elif (isinstance(node, ast.Compare) and isinstance(node.ops[0], (ast.In, ast.NotIn))
              and isinstance(node.comparators[0], ast.Name) and node.comparators[0].id in names):
            keys.add(node.left)
    return {key.value for key in keys if isinstance(key, ast.Constant) and isinstance(key.value, str)}


def test_section_keys_cover_every_key_the_readers_look_up():
    import psrlab.cli as cli

    tree = ast.parse(inspect.getsource(cli))
    functions = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    readers = {
        "_env_summary": cli._PARAM_KEYS,
        "_resolve_params": cli._PARAM_KEYS,
        "_resolve_online": cli._SECTION_KEYS["online"],
        "run_online": cli._SECTION_KEYS["online"],
        "_offline_runner": cli._SECTION_KEYS["offline"],
        "run_offline": cli._SECTION_KEYS["offline"],
    }
    for name, allowed in readers.items():
        read = _keys_read(functions[name], {"cfg", "ocfg"})
        assert read, f"{name} reads no section key; the reader list is stale"
        assert read <= set(allowed), f"{name} reads {sorted(read - set(allowed))}, which the section checks reject"


def _error_lines(result) -> list[str]:
    """The output of a command that failed with a package error: exit status 1 and no traceback."""
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit), result.output
    return result.output.strip().splitlines()


@pytest.mark.parametrize(
    "option,value,message",
    [
        ("--seeds", "0", "Error: --seeds count must be at least 1, got 0"),
        ("--seeds", "-2", "Error: --seeds count must be at least 1, got -2"),
        ("--seeds", "1,0,1", "Error: --seeds lists 1 more than once"),
        ("--k-list", "30,30", "Error: --k-list lists 30 more than once"),
    ],
    ids=["zero-count", "negative-count", "repeated-seed", "repeated-k"],
)
def test_sweep_offline_rejects_empty_and_repeated_lists(tmp_path, runner, option, value, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(OFFLINE_CONFIG))
    out = tmp_path / "out"
    args = {"--k-list": "30", "--seeds": "1"} | {option: value}
    result = runner.invoke(main, ["sweep-offline", "--config", str(cfg), "--out", str(out), *sum(args.items(), ())])
    assert _error_lines(result) == [message]
    assert not out.exists()


def test_run_online_rejects_a_repeated_seed(tmp_path, runner):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(ONLINE_CONFIG))
    result = runner.invoke(main, ["run-online", "--config", str(cfg), "--out", str(tmp_path / "out"), "--seeds", "2,2"])
    assert _error_lines(result) == ["Error: --seeds lists 2 more than once"]


def test_json_artifacts_are_strict(tmp_path):
    from psrlab.cli import _write_json

    path = tmp_path / "x.json"
    _write_json(path, {"b": 0.1, "a": [1, 2.5e-300]})
    assert path.read_text() == json.dumps({"a": [1, 2.5e-300], "b": 0.1}, indent=2, sort_keys=True) + "\n"
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            _write_json(path, {"a": bad})


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("O", "2", "environment key 'O' must be an integer, got '2'"),
        ("s1", "0", "environment key 's1' must be an integer, got '0'"),
        ("H", 2.0, "environment key 'H' must be an integer, got 2.0"),
        ("T", "x", "environment key 'T' must be an array of numbers: could not convert string to float: 'x'"),
        ("S", True, "environment key 'S' must be an integer, got True"),
    ],
)
def test_ill_typed_env_file_prints_one_line(tmp_path, runner, key, value, message):
    env_file = tmp_path / "env.json"
    gen = runner.invoke(main, ["gen-env", "--name", "tiger", "--params", '{"horizon": 2}', "--out", str(env_file)])
    assert gen.exit_code == 0, gen.output
    env_data = json.loads(env_file.read_text())
    env_data[key] = value
    env_file.write_text(json.dumps(env_data))
    cfg_data = json.loads(json.dumps(OFFLINE_CONFIG))
    cfg_data["env"] = {"path": str(env_file)}
    assert _one_error_line(runner, tmp_path, "run-offline", cfg_data) == f"Error: {message}"


@pytest.mark.parametrize(
    "key,value,message",
    [
        ("n", "5", "n must be an integer, got '5'"),
        ("scale", "x", "scale must be a number, got 'x'"),
        ("seed", 1.5, "seed must be an integer, got 1.5"),
        ("n", -1, "n must be at least 0, got -1"),
        ("include_true", "no", "include_true must be true or false, got 'no'"),
        ("scale", float("nan"), "scale must be a finite number at least 0, got nan"),
        ("scale", -0.1, "scale must be a finite number at least 0, got -0.1"),
        ("scale", float("inf"), "scale must be a finite number at least 0, got inf"),
        ("emission_scale", float("nan"), "emission_scale must be a finite number at least 0, got nan"),
    ],
)
def test_ill_typed_candidate_settings_print_one_line(tmp_path, runner, key, value, message):
    cfg_data = json.loads(json.dumps(ONLINE_CONFIG))
    cfg_data["candidates"][key] = value
    assert _one_error_line(runner, tmp_path, "run-online", cfg_data) == f"Error: {message}"


def test_malformed_env_spec_is_one_error_line(tmp_path, runner):
    cfg_data = json.loads(json.dumps(ONLINE_CONFIG))
    cfg_data["env"] = {}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    args = ["run-online", "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert _error_lines(runner.invoke(main, args)) == ["Error: config section 'env' is missing 'builtin' (or 'path')"]
    env_file = tmp_path / "env.json"
    gen = runner.invoke(main, ["gen-env", "--name", "tiger", "--params", '{"horizon": 2}', "--out", str(env_file)])
    assert gen.exit_code == 0, gen.output
    env_data = json.loads(env_file.read_text())
    del env_data["A"]
    env_file.write_text(json.dumps(env_data))
    cfg_data["env"] = {"path": str(env_file)}
    cfg.write_text(json.dumps(cfg_data))
    assert _error_lines(runner.invoke(main, args)) == ["Error: environment is missing 'A'"]
    env_file.write_text("[]")
    assert _error_lines(runner.invoke(main, args)) == ["Error: an environment must be an object, got list"]
    cfg_data["env"] = 5
    cfg.write_text(json.dumps(cfg_data))
    assert _error_lines(runner.invoke(main, args)) == ["Error: config section 'env' must be an object, got 5"]
    with pytest.raises(StructuralError, match="'builtin'"):
        build_env({})


@pytest.mark.parametrize("command,section", [("run-online", "online"), ("run-offline", "offline")])
def test_c_theory_is_read_only_under_auto_params(tmp_path, runner, command, section):
    cfg_data = json.loads(json.dumps(ONLINE_CONFIG if section == "online" else OFFLINE_CONFIG))
    cfg_data[section]["c_theory"] = 0.02
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(cfg_data))
    args = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    assert _error_lines(runner.invoke(main, args)) == [
        f"Error: config section {section!r} sets 'c_theory', which only 'auto_params' reads"
    ]
    del cfg_data[section]["c_theory"]
    cfg.write_text(json.dumps(cfg_data))
    result = runner.invoke(main, args + ["--c-theory", "0.02"])
    assert result.exit_code == 2 and "No such option" in result.output and "--c-theory" in result.output


@pytest.mark.parametrize("key,value", [("delta", 0.5), ("coverage", 1e6)])
@pytest.mark.parametrize("command", ["run-offline", "sweep-offline"])
def test_offline_theory_keys_are_read_only_under_auto_params(tmp_path, runner, command, key, value):
    """Only the theory formulas read the offline section's ``delta`` and ``coverage``, so without ``auto_params`` either is an error."""
    cfg_data = json.loads(json.dumps(OFFLINE_CONFIG))
    cfg_data["offline"][key] = value
    line = _one_error_line(runner, tmp_path, command, cfg_data)
    assert line == f"Error: config section 'offline' sets {key!r}, which only 'auto_params' reads"


@pytest.mark.parametrize(
    "seeds,message",
    [
        ("abc", "must be a non-empty list of integers, got 'abc'"),
        ([1, 1, 2.5], "must be a non-empty list of integers, got [1, 1, 2.5]"),
        (3, "must be a non-empty list of integers, got 3"),
        ([], "must be a non-empty list of integers, got []"),
        ([0, True], "must be a non-empty list of integers, got [0, True]"),
        ([2, 1, 2], "lists 2 more than once"),
    ],
    ids=["string", "float", "scalar", "empty", "bool", "repeated"],
)
@pytest.mark.parametrize("command", ["run-online", "run-offline"])
def test_config_seeds_are_held_to_the_seeds_option_rule(tmp_path, runner, command, seeds, message):
    cfg_data = json.loads(json.dumps(ONLINE_CONFIG if command == "run-online" else OFFLINE_CONFIG))
    cfg_data["seeds"] = seeds
    assert _one_error_line(runner, tmp_path, command, cfg_data) == f"Error: config key 'seeds' {message}"
    assert not (tmp_path / "out").exists()


def test_malformed_config_json_is_one_error_line(tmp_path, runner):
    cfg = tmp_path / "cfg.json"
    for text in ('{"env": ', "[1, 2]"):
        cfg.write_text(text)
        result = runner.invoke(main, ["run-online", "--config", str(cfg), "--out", str(tmp_path / "out")])
        (line,) = _error_lines(result)
        assert line.startswith("Error: ") and repr(str(cfg)) in line, line


@pytest.mark.parametrize("kind", ["missing", "not-json"])
def test_unreadable_env_path_is_one_error_line(tmp_path, runner, kind):
    env_file = tmp_path / "env.json"
    if kind == "not-json":
        env_file.write_text("{nope")
    cfg_data = json.loads(json.dumps(ONLINE_CONFIG))
    cfg_data["env"] = {"path": str(env_file)}
    line = _one_error_line(runner, tmp_path, "run-online", cfg_data)
    assert line.startswith(f"Error: cannot read env file {str(env_file)!r}: "), line


def test_candidates_section_must_be_an_object(tmp_path, runner):
    cfg_data = json.loads(json.dumps(ONLINE_CONFIG))
    cfg_data["candidates"] = ["dithered"]
    line = _one_error_line(runner, tmp_path, "run-online", cfg_data)
    assert line == "Error: config section 'candidates' must be an object, got ['dithered']"


@pytest.mark.parametrize(
    "command,key,value,message",
    [
        ("run-online", "p_min", "x", "p_min must be a number, got 'x'"),
        ("run-online", "max_iterations", 2.5, "max_iterations must be an integer, got 2.5"),
        ("run-online", "max_iterations", True, "max_iterations must be an integer, got True"),
        ("run-online", "alpha", False, "alpha must be a number, got False"),
        ("run-offline", "p_min", "x", "p_min must be a number, got 'x'"),
        ("run-offline", "n_episodes", 60.0, "n_episodes must be an integer, got 60.0"),
        ("run-online", "lambda", "x", "lambda must be a number, got 'x'"),
        ("run-offline", "lambda", "x", "lambda must be a number, got 'x'"),
    ],
)
def test_ill_typed_parameter_is_one_error_line(tmp_path, runner, command, key, value, message):
    section = "online" if command == "run-online" else "offline"
    cfg_data = json.loads(json.dumps(ONLINE_CONFIG if section == "online" else OFFLINE_CONFIG))
    cfg_data[section][key] = value
    assert _one_error_line(runner, tmp_path, command, cfg_data) == f"Error: {message}"


@pytest.mark.parametrize("value", ["false", 0, 1, None])
@pytest.mark.parametrize("command", ["run-online", "run-offline"])
def test_auto_params_must_be_a_boolean(tmp_path, runner, command, value):
    """A string such as "false" is not read as a flag: the section is refused and nothing runs."""
    section = "online" if command == "run-online" else "offline"
    cfg_data = json.loads(json.dumps(ONLINE_CONFIG if section == "online" else OFFLINE_CONFIG))
    for key in ("p_min", "beta", "lambda", "alpha"):
        del cfg_data[section][key]
    cfg_data[section]["auto_params"] = value
    line = _one_error_line(runner, tmp_path, command, cfg_data)
    assert line == f"Error: config key 'auto_params' in section {section!r} must be true or false, got {value!r}"
    assert not (tmp_path / "out").exists()
