"""Toy training loop with component freezing.

Plain gradient descent over synthetic next-token-prediction batches.  The
loss path weighs each sample's summed token losses by its weight from the
objective module, so the chosen aggregation scheme shapes the gradients
exactly as it shapes the reported loss.  Parameters of components outside
the stage's trainable set are never touched, so they remain bit-identical
across any number of steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .. import numerics, objective
from ..errors import ConfigError, NonFiniteError
from ..numerics import Tensor
from ..seeding import Rng
from ..sequence import ImageBlock, MultimodalSequence, TextSpan
from ..vision import ModelConfig, PatchGrid, VisionLanguageModel
from .stages import StageConfig


@dataclass
class TrainingExample:
    """One next-token-prediction sample, optionally with an image."""

    sequence: MultimodalSequence
    grids: dict[int, PatchGrid]
    target_positions: list[int]
    target_ids: list[int]


@dataclass
class TrainResult:
    losses: list[float]
    per_scheme_initial: dict[str, float]
    per_scheme_final: dict[str, float]


def make_synthetic_batch(config: ModelConfig, rng: Rng, n_examples: int = 8,
                         text_len: int = 12) -> list[TrainingExample]:
    """Random token sequences; every other one, from the first, gets a 1x2 image.

    Targets are the next token at each text position (teacher forcing);
    visual positions carry no loss.  Lengths vary across the batch so the
    aggregation schemes are distinguishable.
    """
    if text_len < 2:
        raise ConfigError("text_len must be at least 2")
    examples = []
    for i in range(n_examples):
        ex_rng = rng.split(f"example{i}")
        length = text_len + (i % 3)
        tokens = [int(t) for t in ex_rng.split("tokens").integers(0, config.vocab, length)]
        with_image = i % 2 == 0
        if with_image:
            eh, ew = 1, 2
            block = ImageBlock(eh, ew)
            seq = MultimodalSequence.of((TextSpan(tuple(tokens[:2])), block,
                                         TextSpan(tuple(tokens[2:]))))
            features = Tensor(ex_rng.split("patches").normal((4 * eh * ew, config.dim)))
            grids = {1: PatchGrid(2 * eh, 2 * ew, config.dim, features)}
            n_visual = block.token_count()
            # Positions of text tokens within the flattened sequence.
            positions = list(range(2)) + [2 + n_visual + j for j in range(length - 2)]
        else:
            seq = MultimodalSequence.of((TextSpan(tuple(tokens)),))
            grids = {}
            positions = list(range(length))
        # Predict the following text token at every text position but the last.
        target_positions = positions[:-1]
        target_ids = tokens[1:]
        examples.append(TrainingExample(
            sequence=seq, grids=grids,
            target_positions=target_positions, target_ids=target_ids))
    return examples


def _batch_loss(model: VisionLanguageModel, batch: list[TrainingExample],
                scheme: str) -> tuple[Tensor, list[objective.SampleLossRecord]]:
    records: list[objective.SampleLossRecord] = []
    nll_tensors: list[Tensor] = []
    for example in batch:
        prepared = model.prepare(example.sequence, example.grids)
        logits = model.forward(prepared)
        picked = numerics.gather_rows(logits, example.target_positions)
        nll = numerics.token_nll(picked, example.target_ids)
        nll_tensors.append(nll)
        records.append(objective.SampleLossRecord(tuple(nll.data.tolist())))
    weights = objective.gradient_weights(records, scheme)
    terms = [numerics.scale(numerics.sum_all(nll), w)
             for nll, w in zip(nll_tensors, weights)]
    total = terms[0]
    for term in terms[1:]:
        total = numerics.add(total, term)
    return total, records


def train_toy(model: VisionLanguageModel, stage: StageConfig,
              data: list[TrainingExample], steps: int, lr: float,
              scheme: str = "sqrt") -> TrainResult:
    """Run ``steps`` of gradient descent on the stage's trainable components.

    The model is updated in place; its parameters after the call are the
    final ones.  ``steps`` 0 reports the loss once and updates nothing.
    ``lr`` may be zero (a legal no-op step, useful for freeze checks) but not
    negative or non-finite; a step that overflows raises ``ConfigError``.
    """
    if not (math.isfinite(lr) and lr >= 0):
        raise ConfigError(f"learning rate must be finite and non-negative, got {lr}")
    if scheme not in objective.SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {sorted(objective.SCHEMES)}")
    if steps < 0:
        raise ConfigError(f"steps must be non-negative, got {steps}")
    if not data:
        raise ConfigError("training data must be non-empty")

    losses: list[float] = []
    initial = None
    try:
        # A diverging step overflows; Tensor's finiteness check reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(max(steps, 1)):
                loss, records = _batch_loss(model, data, scheme)
                losses.append(loss.item())
                final = {name: objective.aggregate(records, name) for name in objective.SCHEMES}
                if initial is None:
                    initial = final
                if not steps:
                    break
                loss.backward()
                for name, param in model.parameters().items():
                    if param.grad is not None and model.component_of(name) in stage.trainable:
                        model.set_parameter(name, numerics.parameter(param.data - lr * param.grad))
    except NonFiniteError as exc:
        raise ConfigError(f"training diverged at step {step + 1} with lr {lr}: {exc}") from None
    return TrainResult(losses=losses, per_scheme_initial=initial, per_scheme_final=final)
