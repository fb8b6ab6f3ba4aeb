"""Golden outputs: the artifacts of a small offline sweep and a short online
run, pinned byte for byte.

Artifacts are deterministic functions of config and seeds, and speed-ups
must leave them unchanged.  The sweep digests were recorded before offline
collection was batched; a change that moves any draw, weight or float sum
in the offline pipeline changes one of them.  The online digests were
recorded before the bonus sums and the planner's backward induction were
rewritten; each iteration's ``ucb_value`` and the summary's ``gap`` pin
the bonus and plan bits.
"""

import hashlib
from pathlib import Path

from click.testing import CliRunner

from psrlab.cli import main

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


def _assert_digests(out, expected, expected_all):
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(expected)
    contents = [(out / name).read_bytes() for name in names]
    assert {name: hashlib.sha256(data).hexdigest() for name, data in zip(names, contents)} == expected
    assert hashlib.sha256(b"".join(contents)).hexdigest() == expected_all


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
