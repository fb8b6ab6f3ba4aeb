"""Golden outputs: the artifacts of a small offline sweep and a short online
run, pinned byte for byte.

Artifacts are deterministic functions of config and seeds, and speed-ups
must leave them unchanged.  The sweep digests were recorded before offline
collection was batched; a change that moves any draw, weight or float sum
in the offline pipeline changes one of them.  The online digests were
recorded before the bonus sums and the planner's backward induction were
rewritten; each iteration's ``ucb_value`` and the summary's ``gap`` pin
the bonus and plan bits.  The dataset JSONL digests were recorded while a
dataset still kept one entry object per trajectory next to its columns
and wrote its own JSONL; the same text is now decoded from the
trajectory-index columns by ``check_oracles.dataset_jsonl``, with the policy
ids those entries carried supplied by the test.  The verify
digests at 5 and 20 seeds were recorded when the checks that hold for every
policy began to plan the worst policy instead of sampling tree policies
(only the ``tv-vs-estimation-error`` line changed; it prints no number
finer than ``.4f``); a drift in any bit a verify line prints (a count, a
rate or a formatted distance) changes them.  The ``mle-events`` digest at
the command line's default of 100 seeds was recorded while that suite still
read each candidate's likelihood in its own pass and summed each prefix log
with ``math.log`` one entry at a time, and while the conditional-TV
diagnostic compared one candidate with the truth per call.  The digest of a
1,024-iteration ``online_decay`` run's selections (the selected candidate
and the margin set's size per iteration) was recorded while selection still
summed every buffered log row on every call; selection's log-likelihoods
have since moved in the last bit, and its choices have not.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from check_oracles import dataset_jsonl
from conftest import _openblas_core, cpu_kernels
from psrlab.cli import build_behavior, build_candidates, build_env, main
from psrlab.offline import collect_offline
from psrlab.online import OnlineConfig, run_psr_ucb
from psrlab.pomdp import default_psr
from psrlab.verify import verify

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
CONFIG = CONFIGS / "offline_sweep.json"

SWEEP_SHA256 = {
    "medians.json": "f1b43b4d67da7773111c834ad094fb80ff3808eaae0f6ad28a1c5ccd5e70c7ea",
    "model_K1000_seed0.json": "0fe27ab99497856f051d1dcee8b0d600e78c429a8b8e589ffc171cbd082fb4ea",
    "model_K1000_seed1.json": "0fe27ab99497856f051d1dcee8b0d600e78c429a8b8e589ffc171cbd082fb4ea",
    "model_K250_seed0.json": "9aae07a3b9ceb02f6b64ab06d31a9d5faf98116f6a92cc008f1eea76b28835e6",
    "model_K250_seed1.json": "0fe27ab99497856f051d1dcee8b0d600e78c429a8b8e589ffc171cbd082fb4ea",
    "policy_K1000_seed0.json": "80c20bda75fa9953c5b484e033b56a700fbf54b782e56c530c675653631c806e",
    "policy_K1000_seed1.json": "e2f8c85fe5d0f3b1731b658d0c17dff505481e9dea43ca3da0488fa23b5cdb8a",
    "policy_K250_seed0.json": "e2f8c85fe5d0f3b1731b658d0c17dff505481e9dea43ca3da0488fa23b5cdb8a",
    "policy_K250_seed1.json": "e2f8c85fe5d0f3b1731b658d0c17dff505481e9dea43ca3da0488fa23b5cdb8a",
    "results.csv": "fe132cb82bde5aeb159631cb65372bed817f52d1c1afedb62230f4d39746c8ab",
}
# SHA-256 of all files concatenated in sorted-name order.
SWEEP_ALL_SHA256 = "fae5524258aa8e6d749aac90bacec2c0429fad956f71ef8c32e3278658861417"

ONLINE_SHA256 = {
    "logs_seed0.csv": "e5d8462597e76b039a2a833db30498373e9d10ef151598416103b681d521dee4",
    "logs_seed1.csv": "444b3e4fa7413c9f83711a6940a01d9c265b80577d2bf7899c38795b60bd2941",
    "model_seed0.json": "54ac705a4e9cb9d229b1243c5206462599b7d781f3978c628421ac61e0907957",
    "model_seed1.json": "c59c2026ca094d6519963038894678d6d65f6e3e44b2211b30ec66e9e6ba7c9d",
    "policy_seed0.json": "e29d77e78c0d619ae8627ea39c396cd0d5c05a6994bcec7baacb00467d2c017d",
    "policy_seed1.json": "e29d77e78c0d619ae8627ea39c396cd0d5c05a6994bcec7baacb00467d2c017d",
    "summary_seed0.json": "c2c1288b9093e17acb29e608f755a5045ba41a06e7bd61a84387a465d7c6da7a",
    "summary_seed1.json": "04515de52036453bed313eff17457fe1fda9f7ccdea49b92643c041aebd01ee5",
}
ONLINE_ALL_SHA256 = "9f70a29ef40ed58834c29bd9858243e4f44b20290d2ece8652a27f17cb0fda66"

# SHA-256 of dataset_jsonl(dataset, label) for seed 0: the offline sweep's
# behaviour at n = 1000 episodes, and the dataset of the online reference run.
# The labels are the policy ids these datasets once recorded.
OFFLINE_JSONL_SHA256 = "c3720d8881731bfd047bba07efe16cd5b10670e983a4d55f4142d01e3c0d583b"
ONLINE_JSONL_SHA256 = "767aa8fd2ec357cbc96f34fe9bcf01d080713a749e56d0fece6827c9e02c831c"

# SHA-256 of the newline-joined "candidate_id,feasible_size" rows of a
# 1,024-iteration online_decay run at seed 0.
ONLINE_DECAY_1024_SHA256 = "c857181b2949e1ef8de3be632e0dfd43c94f7a16dac3dd64ce686e700a237ec4"

# SHA-256 of the newline-joined lines of verify("all", n), at n = 5 and at the
# benchmark's n = 20.
VERIFY_ALL_5_SHA256 = "75e4dafcf54665cf622788a93849953ca4d199fbf847007646d493106a0f3cbd"
VERIFY_ALL_20_SHA256 = "30e8d22232cb85b80d36885781281304d220833c1b1f3744c17987a5008b7012"
# SHA-256 of the newline-joined lines of verify("mle-events", 100).
MLE_EVENTS_100_SHA256 = "245198327e932f8235f32674446adef7db6cc57564c43ebb1873086c75d3fad1"


def _assert_digests(out, expected, expected_all):
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(expected)
    contents = [(out / name).read_bytes() for name in names]
    assert {name: hashlib.sha256(data).hexdigest() for name, data in zip(names, contents)} == expected, cpu_kernels()
    assert hashlib.sha256(b"".join(contents)).hexdigest() == expected_all, cpu_kernels()


def test_sweep_offline_outputs_are_byte_identical(tmp_path):
    out = tmp_path / "sweep"
    result = CliRunner().invoke(
        main,
        ["sweep-offline", "--config", str(CONFIG), "--k-list", "250,1000", "--seeds", "0,1", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    _assert_digests(out, SWEEP_SHA256, SWEEP_ALL_SHA256)


def test_run_online_outputs_are_byte_identical(tmp_path):
    out = tmp_path / "online"
    result = CliRunner().invoke(
        main,
        ["run-online", "--config", str(CONFIGS / "online_reference.json"), "--seeds", "0,1", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    _assert_digests(out, ONLINE_SHA256, ONLINE_ALL_SHA256)


def test_offline_dataset_jsonl_is_byte_identical():
    config = json.loads(CONFIG.read_text())
    env = build_env(config["env"])
    dataset = collect_offline(env, build_behavior(config["behavior"], env.space), 1000, 0)
    assert dataset.size() == 1000
    text = dataset_jsonl(dataset, lambda h, i: "behavior")
    assert hashlib.sha256(text.encode()).hexdigest() == OFFLINE_JSONL_SHA256, cpu_kernels()


def _online_run(config_name, **overrides):
    """``run_psr_ucb`` at seed 0 on a config's environment, candidates and online section, with fields overridden."""
    config = json.loads((CONFIGS / config_name).read_text())
    env = build_env(config["env"])
    true_model, _ = default_psr(env)
    on = config["online"]
    fields = dict(max_iterations=on["max_iterations"], epsilon=on["epsilon"], delta=on["delta"], p_min=on["p_min"],
                  beta=on["beta"], lam=on["lambda"], alpha=on["alpha"], seed=0)
    online = OnlineConfig(**(fields | overrides))
    return run_psr_ucb(env, online, build_candidates(env, config["candidates"]), true_model.core_tests)


def test_online_dataset_jsonl_is_byte_identical():
    result = _online_run("online_reference.json")
    assert result.dataset.size() == 2 * len(result.logs)
    text = dataset_jsonl(result.dataset, lambda h, i: f"explore[k={i + 1},h={h + 1}]")  # iteration k adds one per bucket
    assert hashlib.sha256(text.encode()).hexdigest() == ONLINE_JSONL_SHA256, cpu_kernels()


def test_long_online_decay_selections_are_unchanged():
    result = _online_run("online_decay.json", max_iterations=1024)
    assert len(result.logs) == 1024 and not result.terminated
    rows = "\n".join(f"{log.candidate_id},{log.feasible_size}" for log in result.logs)
    assert hashlib.sha256(rows.encode()).hexdigest() == ONLINE_DECAY_1024_SHA256, cpu_kernels()


def test_verify_all_lines_are_byte_identical():
    lines = verify("all", 5).lines()
    assert len(lines) == 69
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == VERIFY_ALL_5_SHA256, cpu_kernels()


def test_verify_all_lines_at_the_benchmark_seed_count_are_byte_identical():
    lines = verify("all", 20).lines()
    assert len(lines) == 69
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == VERIFY_ALL_20_SHA256, cpu_kernels()


def test_mle_events_lines_at_the_command_line_seed_count_are_byte_identical():
    lines = verify("mle-events", 100).lines()
    assert len(lines) == 4
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == MLE_EVENTS_100_SHA256, cpu_kernels()


def test_cpu_kernels_read_unknown_without_the_symbol():
    assert _openblas_core(np, "no_such_symbol") == "unknown"
    assert "numpy=" in cpu_kernels() and "numpy dispatch" in cpu_kernels()
