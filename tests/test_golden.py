"""Golden outputs: the default NIAH reports, two noisy probe cells and two
``vlmlab sparsity`` reports.

The digests were recorded from the per-token reference implementation of
position ids, per-group signatures and the per-group timeline; any refactor
of those paths must reproduce them bit for bit.
"""

import hashlib

import numpy as np
import pytest

from vlmlab import mrope
from vlmlab.cli import main
from vlmlab.harness import NiahConfig, build_niah_sequence, run_niah_probe


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_default_niah_reports_byte_identical(tmp_path, capsys):
    assert main(["niah", "--seed", "0", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _sha256((tmp_path / "niah.json").read_bytes()) == (
        "15696e7b439c96d6ae083e0b4c605efc3030e1748655ca0e5aff5c709a933100")
    assert _sha256((tmp_path / "niah.csv").read_bytes()) == (
        "2e4b86f2f18dd95806ba5607a4e37c5511486589e812c77270c1fbb99933dde7")


@pytest.mark.parametrize("duration_s, depth, trial, index, margin_hex, scores_sha256", [
    (30.0, 0.3, 0, 9, "0x1.8e29d7cbcae76p-2",
     "47caa7f7ca5cf2b69eb594c628da5780e35ca9467e7cb610bf552a6d0161ca41"),
    (60.0, 0.7, 2, 41, "0x1.7ec326dc38e38p-2",
     "3099ac6428f73e4e4bd0a87baf31bca975652f4f135a626e1d7de387a5a081cd"),
])
def test_noisy_probe_scores_exact(duration_s, depth, trial, index, margin_hex, scores_sha256):
    cfg = NiahConfig(overlap=0.5, signature_noise=0.05)
    alloc = mrope.build_frequency_allocation(cfg.signature_dim)
    seq, keys, truth = build_niah_sequence(cfg, duration_s, depth, trial)
    result = run_niah_probe(seq, keys, truth.query_signature, alloc)
    assert len(result.scores) == int(duration_s)
    assert result.predicted_index == truth.group_index == index
    assert result.margin.hex() == margin_hex
    assert _sha256(np.asarray(result.scores, dtype=np.float64).tobytes()) == scores_sha256


@pytest.mark.parametrize("argv, digest", [
    (["--duration", "7200", "--spacing", "2", "--granularity", "0.1"],
     "1893284aa38b29cead6ae273ddf5384c02d4e2245a6e5f3f89bca3f475dff55f"),
    (["--duration", "100", "--spacing", "0.35", "--granularity", "0.1"],
     "92bac3bf8d42ab148584fbead426fb10124063af49e39167c69f384e1cc9048e"),
], ids=["readme-two-hours", "fractional-spacing"])
def test_sparsity_report_byte_identical(capsys, argv, digest):
    assert main(["sparsity", *argv]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == digest
