"""Golden outputs: the artifacts of a small offline sweep, pinned byte for byte.

Artifacts are deterministic functions of config and seeds, and speed-ups
must leave them unchanged.  These digests were recorded before offline
collection was batched; a change that moves any draw, weight or float sum
in the offline pipeline changes one of them.
"""

import hashlib
from pathlib import Path

from click.testing import CliRunner

from psrlab.cli import main

CONFIG = Path(__file__).resolve().parents[1] / "configs" / "offline_sweep.json"

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


def test_sweep_offline_outputs_are_byte_identical(tmp_path):
    out = tmp_path / "sweep"
    result = CliRunner().invoke(
        main,
        ["sweep-offline", "--config", str(CONFIG), "--k-list", "250,1000", "--seeds", "0,1", "--out", str(out)],
    )
    assert result.exit_code == 0, result.output
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(SWEEP_SHA256)
    contents = [(out / name).read_bytes() for name in names]
    assert {name: hashlib.sha256(data).hexdigest() for name, data in zip(names, contents)} == SWEEP_SHA256
    assert hashlib.sha256(b"".join(contents)).hexdigest() == SWEEP_ALL_SHA256
