"""Golden outputs: the default NIAH reports, two noisy probe cells, the
timestamped timelines of the default NIAH durations, two ``vlmlab
sparsity`` reports and four ``vlmlab train`` reports.

The digests were recorded from the per-token reference implementation of
position ids, per-group signatures and the per-group timeline; any refactor
of those paths must reproduce them bit for bit.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from numeric_env import HASWELL, SKYLAKEX, openblas_core, pinned, pinned_in
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


def _pin_id(value):
    """A pin table's part of a test id: its value under ``SKYLAKEX``, where
    the pins were first recorded, so that the ids stay as they were."""
    if isinstance(value, dict):
        pin = value[SKYLAKEX]
        return pin if isinstance(pin, str) else "-".join(pin)
    return None


# Each pin as (margin in hex, SHA-256 of the scores), by numeric environment.
@pytest.mark.parametrize("duration_s, depth, trial, index, pins", [
    (30.0, 0.3, 0, 9, {
        SKYLAKEX: ("0x1.8e29d7cbcae76p-2",
                   "47caa7f7ca5cf2b69eb594c628da5780e35ca9467e7cb610bf552a6d0161ca41"),
        HASWELL: ("0x1.8e29d7cbcae78p-2",
                  "1d872af5e05421ae7e690953a63845e63a92d6b6d07af69429c3cd2a730a4005")}),
    (60.0, 0.7, 2, 41, dict.fromkeys((SKYLAKEX, HASWELL), (
        "0x1.7ec326dc38e38p-2",
        "3099ac6428f73e4e4bd0a87baf31bca975652f4f135a626e1d7de387a5a081cd"))),
], ids=_pin_id)
def test_noisy_probe_scores_exact(duration_s, depth, trial, index, pins):
    margin_hex, scores_sha256 = pinned(pins)
    cfg = NiahConfig(overlap=0.5, signature_noise=0.05)
    alloc = mrope.build_frequency_allocation(cfg.signature_dim)
    seq, keys, truth = build_niah_sequence(cfg, duration_s, depth, trial)
    result = run_niah_probe(seq, keys, truth.query_signature, alloc)
    assert len(result.scores) == int(duration_s)
    assert result.predicted_index == truth.group_index == index
    assert result.margin.hex() == margin_hex, pinned_in()
    assert _sha256(np.asarray(result.scores, dtype=np.float64).tobytes()) == scores_sha256, \
        pinned_in()


# The reports hold only accuracies, and position ids depend on stamp lengths,
# not on their bytes, so only these digests see a wrong stamp digit.
@pytest.mark.parametrize("style, minutes, tokens_sha256, columns_sha256", [
    ("seconds", 1.0, "7d067a2dfcf2e73a7ea5858bf007b912469e0fc3c62defc4330b861d77cecfbd",
     "1b88fe6c80dd97e195c6feb3da002bda796246dc2516eaefa960682b53a7510a"),
    ("seconds", 8.0, "f76f42d3f1dc5c95d26c6b7f4d4bf12d1961e16b24b9aabcbb9ac249411fb005",
     "908efb26ec2335c8eb03df4995a24026f0cab43bcd2eab4b0f7059af5a85d8c3"),
    ("seconds", 32.0, "43dd0bd6fd3ebab52d3348e1620d9b448dd4448ebf212461def5b754764fb9bd",
     "0f1814fb573f88cf66c8fb2515ed86033f4fd7de558922b832e77e4581d32fcb"),
    ("seconds", 68.27, "a15b54f3c1d2f83d961dedcbee741c58abf0007318f5e1ae2c37e31799c023a0",
     "43fbec27cfcc687c45b6e964dc4025ba6b3c5f3b2339c3c3d36ca5bb9361b5a3"),
    ("hms", 1.0, "badf4c7393ac38a7fd915cb89207e18473fe9ce6c2fa72b9fc54ebc9f5f36e50",
     "a22d8de89a9f59ea7a3f63d43e089a08b2da795e92fceefa2aaa873237bd54b3"),
    ("hms", 8.0, "7b8b6901f267ed9dfe0fe7b19f604339b91bf27ffc48780c3aeac55f12752d00",
     "93ee91d431fdf67a620db3fd68c227a1fb02e8480c27aa94a3793d9464ca3992"),
    ("hms", 32.0, "342f428804957f29831ef95ba907a40e703716c36e53392dea5e24fef4fab6d1",
     "50ae86ff419251c69c5b1ebda3bf8f23e6f3a8010e9038440c358ac639995187"),
    ("hms", 68.27, "e91c25299125f62d8e0a4b42269ad49f23e9af1660b0fabf6954d3bb1f5c8259",
     "046943651f7a2cc969bf532dfe7f0cbb93dcad821627c1c93fb645e4b6babe58"),
])
def test_default_niah_timelines_byte_identical(style, minutes, tokens_sha256, columns_sha256):
    cfg = NiahConfig(timestamp_style=style)
    assert cfg.num_frames == 4096 and minutes in cfg.durations_min
    seq, _, _ = build_niah_sequence(cfg, minutes * 60.0, 0.5)
    assert (seq.tokens.dtype, seq.columns.dtype) == (np.uint8, np.int64)
    assert _sha256(seq.tokens.tobytes()) == tokens_sha256
    assert _sha256(seq.columns.tobytes()) == columns_sha256


@pytest.mark.parametrize("argv, digest", [
    (["--duration", "7200", "--spacing", "2", "--granularity", "0.1"],
     "1893284aa38b29cead6ae273ddf5384c02d4e2245a6e5f3f89bca3f475dff55f"),
    (["--duration", "100", "--spacing", "0.35", "--granularity", "0.1"],
     "92bac3bf8d42ab148584fbead426fb10124063af49e39167c69f384e1cc9048e"),
], ids=["readme-two-hours", "fractional-spacing"])
def test_sparsity_report_byte_identical(capsys, argv, digest):
    assert main(["sparsity", *argv]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == digest


@pytest.mark.parametrize("stage, steps, scheme, digest", [
    ("S0", 5, "per_sample", {
        SKYLAKEX: "2a078c0ce9cf0361ded01eef08f350c7bf08940a8b90a11719d282ec8f1407f1",
        HASWELL: "e120ac95d38c20b3aa03428b3a588e37e5848a6a0e6f3d1da882d1e491204d19"}),
    ("S0", 5, "per_token", {
        SKYLAKEX: "f70077d2ed17c63015ec41fafe683e3ffc877c402b68ba95e6b3c4b07ec0168f",
        HASWELL: "83fc2bfc2b26be53151d8856b211ce5500f32b3887ce8a682e5b327ce83cfbef"}),
    ("S0", 5, "sqrt", {
        SKYLAKEX: "5ae5d2adb9e31c17a1cd8d9d688e3fb784cd647d1e6b038aa101648df925001e",
        HASWELL: "61bc0752c2d81847fce179fb931d0a6fb71e06db9f19c509c0f93bf34817aad1"}),
    ("S1", 2, None, {
        SKYLAKEX: "a505c2e5cbf09b84383211a4e3749a9900a5bd4f2a88f4f3248efbb881d4627b",
        HASWELL: "6fad6954d642f8986d01e146a0ee44490aff335bdce2a51aaf94b433d793e671"}),
], ids=_pin_id)
def test_train_report_byte_identical(tmp_path, capsys, stage, steps, scheme, digest):
    """The losses and the ``schemes_initial`` / ``schemes_final`` of every
    scheme, with the trained scheme set through ``--config``."""
    argv = ["train", "--stage", stage, "--steps", str(steps)]
    if scheme is not None:
        config = tmp_path / "train.json"
        config.write_text(json.dumps({"scheme": scheme}), encoding="utf-8")
        argv += ["--config", str(config)]
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == pinned(digest), pinned_in()


@pytest.mark.skipif(platform.machine() != "x86_64" or openblas_core() == "unknown",
                    reason="needs numpy's bundled OpenBLAS on x86-64")
def test_pin_message_names_the_openblas_core():
    """A pin table gives its value in the emulated AVX2 environment, whose
    name it must match, and fails naming the environment of a run it has no
    value for: here OpenBLAS forced to a Sandybridge core, for a child
    process only."""
    def child(**env):
        return subprocess.run([sys.executable, "-c", "from numeric_env import *; "
                               "print(pinned({SKYLAKEX: 1, HASWELL: 2}))"],
                              cwd=Path(__file__).parent, env={**os.environ, **env},
                              capture_output=True, text=True, timeout=60)

    done = child(OPENBLAS_CORETYPE="Haswell",
                 NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    assert (done.returncode, done.stdout) == (0, "2\n"), done.stderr
    done = child(OPENBLAS_CORETYPE="Sandybridge")
    assert done.returncode != 0 and done.stdout == ""
    assert ("no value pinned for OpenBLAS core Sandybridge, numpy X86_V4 "
            in done.stderr.splitlines()[-1]), done.stderr
    assert done.stderr.endswith(f"pins recorded for {SKYLAKEX} and {HASWELL}\n")
