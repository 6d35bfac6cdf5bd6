"""The scripts under ``tools/``, run as a user runs them."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from vlmlab.harness import load_stage_config, make_synthetic_batch, train_toy
from vlmlab.seeding import Rng
from vlmlab.vision import ModelConfig, VisionLanguageModel

ROOT = Path(__file__).resolve().parents[1]


def test_s0_digest_hashes_the_chained_steps():
    """Three chained train_s0 operations hash to the digests of one
    three-step S0 ``train_toy`` run on the benchmark's model and batch."""
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "s0_digest.py"), "--steps", "3",
                           "--seed", "1"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)

    rng = Rng(1)
    cfg = ModelConfig()
    model = VisionLanguageModel(cfg, rng.split("model"))
    batch = make_synthetic_batch(cfg, rng.split("data"), n_examples=8, text_len=12)
    losses = train_toy(model, load_stage_config("S0"), batch, steps=3, lr=0.1).losses
    params = hashlib.sha256()
    for name, param in model.parameters().items():
        params.update(name.encode())
        params.update(param.data.tobytes())
    assert report == {"seed": 1, "steps": 3,
                      "losses_sha256": hashlib.sha256(np.array(losses).tobytes()).hexdigest(),
                      "params_sha256": params.hexdigest()}
