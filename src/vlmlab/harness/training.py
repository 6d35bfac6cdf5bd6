"""Toy training loop with component freezing.

Plain gradient descent over synthetic next-token-prediction batches.
``train_toy`` checks every example's targets and lays out the batch's loss
rows, targets, counts and gradient weights once (``_batch_loss``).  Each step
runs the batch through the decoder as one packed pass; one
``weighted_run_sum`` node weighs each sample's summed token losses by its
weight from the objective module, so the scheme shapes the gradients exactly
as it shapes the reported loss.  ``requires_grad`` alone says what backward
differentiates: frozen components have it off and stay bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .. import numerics, objective
from ..errors import NUMBER, ConfigError, NonFiniteError, ShapeError, _has_type, is_integer
from ..numerics import Tensor
from ..seeding import Rng
from ..sequence import IMAGE, TEXT, MultimodalSequence
from ..vision import ModelConfig, PatchGrid, VisionLanguageModel
from .stages import StageConfig


@dataclass
class TrainingExample:
    """One next-token-prediction sample, optionally with an image."""

    sequence: MultimodalSequence
    grids: dict[int, PatchGrid]
    target_positions: np.ndarray  # int64 arrays; any integer sequences pass the checks
    target_ids: np.ndarray


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
    for name, count in (("n_examples", n_examples), ("text_len", text_len)):
        if not is_integer(count):
            raise ConfigError(f"{name} must be an integer, got {count!r}")
    if n_examples < 1:
        raise ConfigError(f"n_examples must be at least 1, got {n_examples}")
    if text_len < 2:
        raise ConfigError("text_len must be at least 2")
    examples = []
    for i in range(n_examples):
        ex_rng = rng.split(f"example{i}")
        length = text_len + (i % 3)
        tokens = ex_rng.split("tokens").integers(0, config.vocab, length)
        if i % 2 == 0:
            # Two text tokens, a 1x2 image block, then the rest of the text.
            columns = [[TEXT, IMAGE, TEXT], [2, 2, length - 2], [0, 1, 0], [0, 2, 0]]
            features = Tensor(ex_rng.split("patches").normal((8, config.dim)))
            grids = {1: PatchGrid(2, 4, config.dim, features)}
        else:
            columns, grids = [[TEXT], [length], [0], [0]], {}
        seq = MultimodalSequence(np.array(columns), tokens, np.zeros(0), np.zeros(0))
        # Predict the following text token at every text position but the last.
        text_rows = np.flatnonzero(np.repeat(seq.columns[0] == TEXT, seq.columns[1]))
        examples.append(TrainingExample(sequence=seq, grids=grids,
                                        target_positions=text_rows[:-1], target_ids=tokens[1:]))
    return examples


def _example_indices(values, bound: int, what: str, index: int) -> np.ndarray:
    """``values`` as an int64 vector, once they are checked to be integers
    in [0, ``bound``); a ``ShapeError`` names example ``index``."""
    idx = np.asarray(values)
    if idx.ndim != 1 or idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0
                                      or idx.max() >= bound):
        raise ShapeError(f"example {index}: {what} must be integers in [0, {bound})")
    return idx.astype(np.int64)


def _batch_loss(model: VisionLanguageModel, batch: list[TrainingExample], scheme: str
                ) -> Callable[[], tuple[Tensor, dict[str, float]]]:
    """Check each example's targets and lay out the batch's loss once; the
    function returned gives the model's weighted loss and each scheme's
    aggregate.  Target positions must fall in [0, the example's token count)
    and target ids in [0, vocab), one id per position.

    A call prepares the batch as one packed input and runs the decoder once
    over it, which gives each example the bits of its own pass.  One
    ``gather_rows`` takes the loss rows (each example's target positions
    moved by its first row), one ``token_nll`` their losses, and one
    ``weighted_run_sum`` weighs each example's sum, in example order.
    """
    inputs = [(example.sequence, example.grids) for example in batch]
    rows, targets, start = [], [], 0
    for index, example in enumerate(batch):
        length = example.sequence.token_count()
        positions = _example_indices(example.target_positions, length, "target positions", index)
        ids = _example_indices(example.target_ids, model.config.vocab, "target ids", index)
        if len(positions) != len(ids):
            raise ShapeError(f"example {index}: {len(positions)} target positions for "
                             f"{len(ids)} target ids")
        rows.append(positions + start)
        targets.append(ids)
        start += length
    counts = np.array([len(ids) for ids in targets], dtype=np.int64)
    rows, targets = np.concatenate(rows), np.concatenate(targets)
    weights = objective.gradient_weights(counts, scheme)

    def step() -> tuple[Tensor, dict[str, float]]:
        logits = model.forward(model.prepare_batch(inputs))
        nll = numerics.token_nll(numerics.gather_rows(logits, rows), targets)
        return (numerics.weighted_run_sum(nll, counts, weights),
                {name: objective.aggregate(nll.data, counts, name) for name in objective.SCHEMES})

    return step


def train_toy(model: VisionLanguageModel, stage: StageConfig,
              data: list[TrainingExample], steps: int, lr: float,
              scheme: str = "sqrt") -> TrainResult:
    """Run ``steps`` of gradient descent on the stage's trainable components.

    Every example's targets are checked once, before the first step, and
    each step runs the whole batch through the decoder as one packed pass
    (see ``_batch_loss``).  The model is updated in place; its parameters
    after the call are the final ones.  First each parameter drops any
    gradient, and one whose ``requires_grad`` disagrees with the stage
    becomes a leaf with the same bytes and the stage's flag: a frozen one
    (S0: all but the mergers) requires no gradient until a later call's
    stage trains it.
    ``steps`` 0 reports the loss once and updates nothing.
    ``lr`` may be zero (a legal no-op step, useful for freeze checks) but not
    negative or non-finite, and a bool is neither a step count nor a rate.  A
    step that overflows raises ``ConfigError``, as does an example longer than
    the stage's ``sequence_length``.
    """
    if not (_has_type(lr, NUMBER) and lr >= 0):
        raise ConfigError(f"learning rate must be finite and non-negative, got {lr}")
    if scheme not in objective.SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {sorted(objective.SCHEMES)}")
    if not is_integer(steps):
        raise ConfigError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ConfigError(f"steps must be non-negative, got {steps}")
    if not data:
        raise ConfigError("training data must be non-empty")
    for index, example in enumerate(data):
        length = example.sequence.token_count()
        if length > stage.sequence_length:
            raise ConfigError(f"example {index} has {length} tokens, more than stage "
                              f"{stage.name}'s sequence_length {stage.sequence_length}")
    batch_loss = _batch_loss(model, data, scheme)

    for name, param in model.parameters().items():
        param.grad = None  # one left by a backward before this call is stale
        trainable = model.component_of(name) in stage.trainable
        if param.requires_grad != trainable:
            model.set_parameter(name, (numerics.parameter if trainable else Tensor)(param.data))

    losses: list[float] = []
    initial = None
    try:
        # A diverging step overflows; Tensor's finiteness check reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(max(steps, 1)):
                loss, final = batch_loss()
                losses.append(loss.item())
                if initial is None:
                    initial = final
                if not steps:
                    break
                loss.backward()
                for name, param in model.parameters().items():
                    if param.grad is not None:
                        model.set_parameter(name, numerics.parameter(param.data - lr * param.grad))
    except NonFiniteError as exc:
        raise ConfigError(f"training diverged at step {step + 1} with lr {lr}: {exc}") from None
    return TrainResult(losses=losses, per_scheme_initial=initial, per_scheme_final=final)
