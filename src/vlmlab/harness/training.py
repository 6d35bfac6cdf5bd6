"""Toy training loop with component freezing.

Plain gradient descent over synthetic next-token-prediction batches.
``train_toy`` trains on a ``TrainingBatch``, which is checked and laid out
when it is made: its examples' targets are checked and its loss rows,
targets and counts laid out next to the batch's ``BatchPlan`` (everything
``prepare_planned`` needs that reads no parameter), so every step of every
``train_toy`` call on it reuses that layout.  Each step runs the batch
through the decoder as one packed pass, whose ``ln_f`` and head see only the
loss rows; one ``weighted_run_sum`` node weighs each sample's summed token
losses by its weight from the objective module, so the scheme shapes the
gradients exactly as it shapes the reported loss.  ``requires_grad`` alone
says what backward differentiates: frozen components have it off and stay
bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .. import numerics, objective
from ..errors import NUMBER, ConfigError, NonFiniteError, ShapeError, _has_type, is_integer
from ..numerics import Tensor
from ..seeding import Rng
from ..sequence import IMAGE, TEXT, MultimodalSequence
from ..vision import ModelConfig, PatchGrid, VisionLanguageModel, plan_batch
from .stages import StageConfig


def _read_only(values) -> np.ndarray:
    """A read-only copy of ``values`` as an array."""
    a = np.array(values)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class TrainingExample:
    """One next-token-prediction sample, optionally with an image.

    An example cannot change once made: it keeps read-only copies of its
    sequence's arrays and of its targets, and a read-only view of its grids
    (whose features, being Tensors, are read-only too), so a write into any
    of them raises.
    """

    sequence: MultimodalSequence
    grids: Mapping[int, PatchGrid]
    target_positions: np.ndarray  # integer arrays; any integer sequences pass the checks
    target_ids: np.ndarray

    def __post_init__(self):
        seq = self.sequence
        for name, value in (
                ("sequence", MultimodalSequence(*map(_read_only, (
                    seq.columns, seq.tokens, seq.start_times, seq.end_times)))),
                ("grids", MappingProxyType(dict(self.grids))),
                ("target_positions", _read_only(self.target_positions)),
                ("target_ids", _read_only(self.target_ids))):
            object.__setattr__(self, name, value)


class TrainingBatch(tuple):
    """``TrainingExample``s as a tuple, checked and laid out once, when made.

    Every example's target positions must fall in [0, its token count) and
    its target ids in [0, ``vocab``), one id per position and at least one,
    and every grid must fit its sequence.  The batch keeps what each
    ``train_toy`` step shares: its ``BatchPlan`` (``inputs``), the loss rows
    (each example's target positions moved by its first row), target ids
    and target count per example.  Examples cannot change, so neither can
    the layout.
    """

    def __new__(cls, examples: Iterable[TrainingExample], vocab: int):
        self = super().__new__(cls, examples)
        inputs, rows, targets, start = [], [], [], 0
        for index, example in enumerate(self):
            length = example.sequence.token_count()
            positions = _example_indices(example.target_positions, length, "target positions",
                                         index)
            ids = _example_indices(example.target_ids, vocab, "target ids", index)
            if len(positions) != len(ids):
                raise ShapeError(f"example {index}: {len(positions)} target positions for "
                                 f"{len(ids)} target ids")
            if not len(ids):
                raise ShapeError(f"example {index}: no targets; each example needs at least one")
            inputs.append((example.sequence, example.grids))
            rows.append(positions + start)
            targets.append(ids)
            start += length
        self.vocab = vocab
        self.inputs = plan_batch(inputs)
        self.rows, self.targets = np.concatenate(rows), np.concatenate(targets)
        self.rows.flags.writeable = self.targets.flags.writeable = False
        self.counts = numerics.Segments(map(len, targets))
        return self


@dataclass
class TrainResult:
    losses: list[float]
    per_scheme_initial: dict[str, float]
    per_scheme_final: dict[str, float]


def make_synthetic_batch(config: ModelConfig, rng: Rng, n_examples: int = 8,
                         text_len: int = 12) -> TrainingBatch:
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
    return TrainingBatch(examples, config.vocab)


def _example_indices(values, bound: int, what: str, index: int) -> np.ndarray:
    """``values`` as an int64 vector, once they are checked to be integers
    in [0, ``bound``); a ``ShapeError`` names example ``index``."""
    idx = np.asarray(values)
    if idx.ndim != 1 or idx.size and (idx.dtype.kind not in "iu" or idx.min() < 0
                                      or idx.max() >= bound):
        raise ShapeError(f"example {index}: {what} must be integers in [0, {bound})")
    return idx.astype(np.int64)


def _weighted_loss(model: VisionLanguageModel, batch: TrainingBatch,
                   weights: np.ndarray) -> tuple[Tensor, Tensor]:
    """The loss tensor and the token losses: one packed decoder pass, its head
    on the loss rows only, then ``token_nll`` and ``weighted_run_sum``."""
    logits = model.forward(model.prepare_planned(batch.inputs), (batch.rows, batch.counts))
    nll = numerics.token_nll(logits, batch.targets)
    return numerics.weighted_run_sum(nll, batch.counts, weights), nll


def _aggregates(token_losses: np.ndarray, batch: TrainingBatch) -> dict[str, float]:
    return {name: objective.aggregate(token_losses, batch.counts, name)
            for name in objective.SCHEMES}


def train_toy(model: VisionLanguageModel, stage: StageConfig,
              batch: TrainingBatch, steps: int, lr: float,
              scheme: str = "sqrt") -> TrainResult:
    """Run ``steps`` of gradient descent on the stage's trainable components.

    ``batch`` is a ``TrainingBatch`` checked against the model's vocabulary,
    as ``make_synthetic_batch`` returns; anything else, a plain list of
    examples or a batch checked against another vocabulary, raises
    ``ConfigError``.  Each step runs the whole batch through the decoder as
    one packed pass, on the layout the batch made once.  The model is
    updated in place; its parameters after the call are the final ones.
    First each parameter drops any gradient, and one whose ``requires_grad``
    disagrees with the stage becomes a leaf with the same bytes and the
    stage's flag: a frozen one (S0: all but the mergers) requires no
    gradient until a later call's stage trains it.
    ``steps`` 0 reports the loss once and updates nothing.  The scheme
    aggregates are those of the first and the last step's token losses.
    ``lr`` may be zero (a legal no-op step, useful for freeze checks) but not
    negative or non-finite, and a bool is neither a step count nor a rate.  A
    step that overflows raises ``ConfigError``, as does an example longer than
    the stage's ``sequence_length``.  Every check runs before any parameter
    changes.
    """
    if not (_has_type(lr, NUMBER) and lr >= 0):
        raise ConfigError(f"learning rate must be finite and non-negative, got {lr}")
    if scheme not in objective.SCHEMES:
        raise ConfigError(f"unknown scheme {scheme!r}; expected one of {sorted(objective.SCHEMES)}")
    if not is_integer(steps):
        raise ConfigError(f"steps must be an integer, got {steps!r}")
    if steps < 0:
        raise ConfigError(f"steps must be non-negative, got {steps}")
    if not (isinstance(batch, TrainingBatch) and batch.vocab == model.config.vocab):
        got = (f"one made with vocab {batch.vocab}" if isinstance(batch, TrainingBatch)
               else f"a {type(batch).__name__}")
        raise ConfigError(f"train_toy needs a TrainingBatch made with the model's vocab "
                          f"{model.config.vocab}, got {got}")
    for index, length in enumerate(batch.inputs.segments):
        if length > stage.sequence_length:
            raise ConfigError(f"example {index} has {length} tokens, more than stage "
                              f"{stage.name}'s sequence_length {stage.sequence_length}")

    for name, param in model.parameters().items():
        param.grad = None  # one left by a backward before this call is stale
        trainable = model.component_of(name) in stage.trainable
        if param.requires_grad != trainable:
            model.set_parameter(name, (numerics.parameter if trainable else Tensor)(param.data))

    losses: list[float] = []
    token_losses: list[np.ndarray] = []
    weights = objective.gradient_weights(batch.counts, scheme)
    try:
        # A diverging step overflows; Tensor's finiteness check reports it.
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(max(steps, 1)):
                loss, nll = _weighted_loss(model, batch, weights)
                losses.append(loss.item())
                token_losses.append(nll.data)
                if not steps:
                    break
                loss.backward()
                for name, param in model.parameters().items():
                    if param.grad is not None:
                        model.set_parameter(name, numerics.parameter(param.data - lr * param.grad))
    except NonFiniteError as exc:
        raise ConfigError(f"training diverged at step {step + 1} with lr {lr}: {exc}") from None
    initial = _aggregates(token_losses[0], batch)
    final = initial if len(token_losses) == 1 else _aggregates(token_losses[-1], batch)
    return TrainResult(losses=losses, per_scheme_initial=initial, per_scheme_final=final)
