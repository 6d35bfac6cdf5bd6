"""Toy encoder/decoder stack with multi-level visual token injection.

The vision encoder is a small pre-norm transformer over patch features with
two-axis rotary encoding (temporal component frozen to zero).  Hidden
states are tapped at three levels; each tap feeds a dedicated 2x2 merger
that projects four neighbouring patch features into one decoder-width
visual token.  The main merger (over the final encoder output) produces
the visual tokens spliced into the decoder input; the per-tap merger
outputs are added onto the hidden states entering the first decoder layers
at the visual-token positions, adding no sequence length.

A batch of sequences is lowered to one packed input, one segment per
sample, in two parts: ``plan_batch`` does once all that reads no parameter
(a ``BatchPlan``, which a batch that runs step after step keeps), and
``VisionLanguageModel.prepare_planned`` the tensor work.  Each run of
consecutive same-shape patch grids in a sample goes through the encoder as
one stack of rows; attention stays inside each grid, as one ``attention``
node over a rank-3 batch that recomputes each grid's probabilities in
backward instead of keeping them, so memory grows linearly with the number
of grids.  Each merger then gathers its 2x2 blocks from every encoder pass
of the batch (``_merge``, by the rows ``_block_corners`` lays out) and runs
once, one run of rows per sample.  The merged rows and the DeepStack levels
come out in element order; one ``gather_rows`` interleaves text and visual
rows.  ``prepare`` is the plan and the tensor work of one sequence.

The encoder is a memo of its own pure function: a second ``forward`` of
the same grids returns the first call's tensors while the encoder holds the
same parameter objects, and any new parameter object empties the memo.
So the steps of stage S0, which keeps the encoder frozen, encode each grid
once; a backward that does differentiate the encoder walks the remembered
nodes again, from their new upstream gradient.  Samples of one batch that
share a grid share its memo entry, and still hand it their gradient terms
sample after sample, as one ``prepare`` per sample does.

The decoder is a standard pre-norm causal transformer whose q/k vectors
get the three-axis rotary treatment; its ``attention`` hides later tokens,
running the queries in row blocks that never compute the masked triangle.
A layer keeps no probabilities, only two floats per row, the row max and
sum, from which backward recomputes them one block at a time, so its
memory grows linearly in the sequence length.  It runs a packed batch as
one pass in which each sample gets the bits of its own pass.  Every
projection, in the blocks, the mergers and the head, is one ``linear``
node, which in a packed batch takes each sample's rows as a run of its own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import groupby
from typing import Mapping, Sequence

import numpy as np

from . import numerics
from .errors import NUMBER, ConfigError, ShapeError, check_config_types, check_fields
from .mrope import FrequencyAllocation, assign_position_ids, build_frequency_allocation, \
    rotation_tables
from .numerics import Tensor
from .seeding import Rng
from .sequence import TEXT, MultimodalSequence

INIT_STD = 0.02
POS_TABLE = (4, 4)  # learned position table, bilinearly resized to each patch grid


@dataclass(frozen=True)
class PatchGrid:
    """Patch features laid out row-major over a (gh, gw) grid.

    A ``Tensor`` compares by identity, so two grids are equal, and encode
    once, when they share their shape and their ``features`` object."""

    FIELD_TYPES = {"gh": int, "gw": int, "dim": int, "features": Tensor}

    gh: int
    gw: int
    dim: int
    features: Tensor

    def __post_init__(self):
        check_fields(self, "patch grid")
        if self.gh < 1 or self.gw < 1:
            raise ConfigError(f"patch grid must be at least 1x1, got {self.gh}x{self.gw}")
        if self.features.shape != (self.gh * self.gw, self.dim):
            raise ShapeError(
                f"features {self.features.shape} vs grid {self.gh}x{self.gw} width {self.dim}")


@dataclass(frozen=True)
class ModelConfig:
    """Model shape, DeepStack taps and inject layers, and the one rotary
    allocation encoder and decoder share; all validated here, once."""

    FIELD_TYPES = {"schema_version": int, "encoder_depth": int, "decoder_depth": int, "dim": int,
                   "llm_dim": int, "head_dim": int, "taps": [int], "inject_layers": [int],
                   "vocab": int, "rope_base": NUMBER, "rope_scheme": str,
                   "inject_after_layer": bool}

    encoder_depth: int = 4
    decoder_depth: int = 3
    dim: int = 8
    llm_dim: int = 16
    head_dim: int = 8
    taps: tuple[int, int, int] | None = None
    inject_layers: tuple[int, int, int] = (0, 1, 2)
    vocab: int = 300
    rope_base: float = 10000.0
    rope_scheme: str = "interleaved"
    # Ablation knob; the default reflects the reference behaviour.
    inject_after_layer: bool = False
    alloc: FrequencyAllocation = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_fields(self, "model")
        if min(self.dim, self.llm_dim, self.vocab, self.encoder_depth, self.decoder_depth) < 1:
            raise ConfigError("model dims and depths must be positive")
        depth = self.encoder_depth
        if self.taps is not None:
            taps = tuple(self.taps)
        else:
            taps = (depth // 4, depth // 2, (3 * depth) // 4)
        if len(taps) != 3 or not 0 <= taps[0] < taps[1] < taps[2]:
            raise ConfigError(f"taps must be three strictly increasing indices, got {taps}")
        if taps[-1] >= depth:
            raise ConfigError(f"tap {taps[-1]} out of range for encoder depth {depth}")
        object.__setattr__(self, "taps", taps)
        layers = tuple(self.inject_layers)
        if len(layers) != 3:
            raise ConfigError("inject_layers must name three decoder layers")
        if len(set(layers)) != 3:
            raise ConfigError(f"duplicate decoder layers in {layers}")
        if any(not 0 <= l < self.decoder_depth for l in layers):
            raise ConfigError(f"inject_layers {layers} out of range for depth {self.decoder_depth}")
        object.__setattr__(self, "inject_layers", layers)
        object.__setattr__(self, "alloc", build_frequency_allocation(
            self.head_dim, self.rope_base, self.rope_scheme))

    def to_json(self) -> str:
        """Every constructor field plus ``schema_version``; ``alloc`` is rebuilt on load."""
        raw = {f.name: getattr(self, f.name) for f in fields(self) if f.init}
        return json.dumps({"schema_version": 1, **raw}, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "ModelConfig":
        raw = json.loads(text)
        if not isinstance(raw, dict):
            raise ConfigError("model config must be a JSON object")
        check_config_types(raw, ModelConfig.FIELD_TYPES, "model")
        return ModelConfig(**raw)


def _linear_params(rng: Rng, fan_in: int, fan_out: int, prefix: str) -> dict[str, Tensor]:
    return {
        f"{prefix}.w": numerics.parameter(rng.split("w").normal((fan_in, fan_out), INIT_STD)),
        f"{prefix}.b": numerics.parameter(np.zeros(fan_out)),
    }


def _norm_params(width: int, prefix: str) -> dict[str, Tensor]:
    return {
        f"{prefix}.gain": numerics.parameter(np.ones(width)),
        f"{prefix}.bias": numerics.parameter(np.zeros(width)),
    }


def _linear(params: Mapping[str, Tensor], prefix: str, x: Tensor,
            segments: numerics.Segments | None = None) -> Tensor:
    return numerics.linear(x, params[f"{prefix}.w"], params[f"{prefix}.b"], segments)


def _norm(params: Mapping[str, Tensor], prefix: str, x: Tensor,
          segments: numerics.Segments | None = None) -> Tensor:
    return numerics.layer_norm(x, params[f"{prefix}.gain"], params[f"{prefix}.bias"], segments)


def _block_params(rng: Rng, width: int, head_dim: int, prefix: str) -> dict[str, Tensor]:
    p: dict[str, Tensor] = {}
    p.update(_norm_params(width, f"{prefix}.ln1"))
    p.update(_linear_params(rng.split("q"), width, head_dim, f"{prefix}.q"))
    p.update(_linear_params(rng.split("k"), width, head_dim, f"{prefix}.k"))
    p.update(_linear_params(rng.split("v"), width, head_dim, f"{prefix}.v"))
    p.update(_linear_params(rng.split("o"), head_dim, width, f"{prefix}.o"))
    p.update(_norm_params(width, f"{prefix}.ln2"))
    p.update(_linear_params(rng.split("m1"), width, 2 * width, f"{prefix}.mlp1"))
    p.update(_linear_params(rng.split("m2"), 2 * width, width, f"{prefix}.mlp2"))
    return p


def _block_forward(params: Mapping[str, Tensor], prefix: str, x: Tensor,
                   rotation: tuple[np.ndarray, np.ndarray], causal: bool,
                   groups: int = 1, segments: numerics.Segments | None = None) -> Tensor:
    """One block over ``groups`` equal runs of rows, attention staying inside
    each run, as one fused ``attention`` node over a rank-3 batch; or over
    the packed samples of ``segments``, each norm, projection and attention
    taken per sample inside its node.  ``rotation`` is the (cos, sin) pair
    of each row's rotary angles; ``causal`` hides later rows."""
    n = x.shape[0]
    a = _norm(params, f"{prefix}.ln1", x, segments)
    q = numerics.rotate_pairs(_linear(params, f"{prefix}.q", a, segments), *rotation)
    k = numerics.rotate_pairs(_linear(params, f"{prefix}.k", a, segments), *rotation)
    v = _linear(params, f"{prefix}.v", a, segments)
    head_dim = v.shape[1]
    if groups > 1:
        q, k, v = (numerics.reshape(t, (groups, n // groups, head_dim)) for t in (q, k, v))
    mixed = numerics.attention(q, k, v, causal, segments)
    if groups > 1:
        mixed = numerics.reshape(mixed, (n, head_dim))
    x = numerics.add(x, _linear(params, f"{prefix}.o", mixed, segments))
    m = _norm(params, f"{prefix}.ln2", x, segments)
    h = numerics.gelu(_linear(params, f"{prefix}.mlp1", m, segments))
    return numerics.add(x, _linear(params, f"{prefix}.mlp2", h, segments))


class VisionEncoder:
    """Transformer over patch features with per-level taps."""

    def __init__(self, config: ModelConfig, rng: Rng):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.params["pos_table"] = numerics.parameter(
            rng.split("pos").normal((*POS_TABLE, config.dim), INIT_STD))
        for layer in range(config.encoder_depth):
            self.params.update(_block_params(rng.split(f"block{layer}"),
                                             config.dim, config.head_dim, f"block{layer}"))
        self._memo_state: tuple[Tensor, ...] = ()
        self._memo: dict[tuple[PatchGrid, ...], tuple[Tensor, tuple[Tensor, ...]]] = {}

    def forward(self, *grids: PatchGrid) -> tuple[Tensor, tuple[Tensor, ...]]:
        """Final hidden state plus the hidden states after each tapped block.

        The grids, all of one shape, run as one batch: each state holds
        their rows one grid after another, and attention stays inside each.

        A memo of this pure function: a call with the grids of an earlier
        one returns that call's tensors, tape nodes and all, for as long as
        ``params`` holds the same parameter objects.  Grids match when they
        have the same shape and the same ``features`` object.  Any change of
        parameter object (``set_parameter``, a training update, a direct
        write to ``params``) empties the memo.  It keeps every grid batch
        seen since then: that suits ``train_toy`` and the CLI ``train``,
        which encode one fixed batch step after step, and would grow
        without bound under a stream of new grids through a frozen encoder.
        """
        if not grids:
            raise ShapeError("the encoder needs at least one grid")
        state = tuple(self.params.values())
        if len(state) != len(self._memo_state) or any(
                a is not b for a, b in zip(state, self._memo_state)):
            self._memo_state, self._memo = state, {}
        if grids in self._memo:
            return self._memo[grids]
        gh, gw, dim = grids[0].gh, grids[0].gw, self.config.dim
        for grid in grids:
            if grid.dim != dim:
                raise ShapeError(f"grid width {grid.dim} vs encoder width {dim}")
            if (grid.gh, grid.gw) != (gh, gw):
                raise ShapeError(f"one encoder batch holds {gh}x{gw} and "
                                 f"{grid.gh}x{grid.gw} grids")
        n = gh * gw
        pos = numerics.reshape(numerics.interpolate_bilinear(self.params["pos_table"], gh, gw),
                               (n, dim))
        if len(grids) > 1:
            pos = numerics.gather_rows(pos, np.tile(np.arange(n), len(grids)))
        rows, cols = np.divmod(np.arange(len(grids) * n) % n, gw)
        ids = np.stack((np.zeros_like(rows), rows, cols), axis=1)
        x = numerics.add(numerics.concat_rows([grid.features for grid in grids]), pos)
        rotation = rotation_tables(ids, self.config.alloc)
        taps = []
        for layer in range(self.config.encoder_depth):
            x = _block_forward(self.params, f"block{layer}", x, rotation, False, len(grids))
            if layer in self.config.taps:
                taps.append(x)
        self._memo[grids] = x, tuple(taps)
        return self._memo[grids]


class Merger:
    """Two-layer MLP collapsing each 2x2 patch block into one visual token."""

    def __init__(self, dim: int, llm_dim: int, rng: Rng):
        self.dim = dim
        self.params: dict[str, Tensor] = {}
        self.params.update(_linear_params(rng.split("fc1"), 4 * dim, llm_dim, "fc1"))
        self.params.update(_linear_params(rng.split("fc2"), llm_dim, llm_dim, "fc2"))

    def forward(self, merged_features: Tensor, segments: numerics.Segments | None) -> Tensor:
        """Both projections over the runs of rows ``segments`` gives, each
        run with the bits of its own call (``None``: one run of all rows)."""
        h = numerics.gelu(_linear(self.params, "fc1", merged_features, segments))
        return _linear(self.params, "fc2", h, segments)


def _block_corners(sides: Sequence[tuple[int, int]]) -> np.ndarray:
    """The (blocks, 4) rows of each 2x2 block's top-left, top-right,
    bottom-left and bottom-right patch, for grids of the (gh, gw) ``sides``
    laid out row-major one after another; blocks follow grid order, then
    block row-major order.  ``plan_batch`` passes at least one grid, each of
    even sides, twice its token grid."""
    # First row of each block, as (grid, block row, block col), then its four
    # corners: one run of consecutive grids of one shape at a time.
    corners, rows = [], 0
    for (gh, gw), same in groupby(sides):
        end = rows + len(list(same)) * gh * gw
        top_left = (np.arange(rows, end, gh * gw)[:, None, None]
                    + np.arange(0, gh * gw, 2 * gw)[None, :, None]
                    + np.arange(0, gw, 2)[None, None, :])
        corners.append(top_left.reshape(-1, 1) + np.array([0, 1, gw, gw + 1]))
        rows = end
    return np.concatenate(corners)


def _merge(features: Tensor, corners: np.ndarray, merger: Merger,
           segments: numerics.Segments | None) -> Tensor:
    """Each block's four ``corners`` rows of ``features`` side by side,
    through ``merger``: the 2x2 merge, one visual token per block."""
    blocks = numerics.gather_rows(features, corners.reshape(-1))
    return merger.forward(numerics.reshape(blocks, (len(corners), 4 * merger.dim)), segments)


class Decoder:
    """Pre-norm causal transformer producing vocabulary logits."""

    def __init__(self, config: ModelConfig, rng: Rng):
        self.config = config
        self.params: dict[str, Tensor] = {}
        self.params["embed"] = numerics.parameter(
            rng.split("embed").normal((config.vocab, config.llm_dim), INIT_STD))
        for layer in range(config.decoder_depth):
            self.params.update(_block_params(rng.split(f"block{layer}"),
                                             config.llm_dim, config.head_dim, f"block{layer}"))
        self.params.update(_norm_params(config.llm_dim, "ln_f"))
        self.params.update(_linear_params(rng.split("head"), config.llm_dim,
                                          config.vocab, "head"))

    def forward(self, embeddings: Tensor, ids: np.ndarray, deepstack: Sequence[Tensor] = (),
                positions: Sequence[int] = (), segments: numerics.Segments | None = None,
                rows: tuple[np.ndarray, numerics.Segments] | None = None) -> Tensor:
        """Run the decoder stack; returns (seq, vocab) logits.

        ``deepstack`` holds one tensor of visual tokens per inject layer, in
        ``config.inject_layers`` order, or nothing; each is added at
        ``positions`` onto its layer's input hidden state (or its output,
        under the post-layer ablation).  The sequence never grows.

        ``segments`` gives the rows of each packed sample, one after another
        (by default all rows are one sample).  A packed batch runs as one
        pass: every norm, projection and attention node works per sample
        (see ``numerics``), so each sample's logits and gradients are the
        bits its own pass would give, and no sample sees another.

        ``rows``, indices and a ``Segments`` of each sample's count, gathers
        the last hidden state: ``ln_f`` and the head run on those rows only,
        a sample at a time, giving the full logits' rows to within rounding.
        """
        cfg = self.config
        if embeddings.shape[1] != cfg.llm_dim:
            raise ShapeError(f"embedding width {embeddings.shape[1]} vs {cfg.llm_dim}")
        if len(ids) != embeddings.shape[0]:
            raise ShapeError(f"{len(ids)} position ids for {embeddings.shape[0]} tokens")
        if deepstack and len(deepstack) != len(cfg.inject_layers):
            raise ShapeError(f"{len(deepstack)} deepstack tensors for "
                             f"{len(cfg.inject_layers)} inject layers")
        inject = dict(zip(cfg.inject_layers, deepstack))

        rotation = rotation_tables(ids, cfg.alloc)
        x = embeddings
        for layer in range(cfg.decoder_depth):
            if layer in inject and not cfg.inject_after_layer:
                x = numerics.add_rows_at(x, inject[layer], positions)
            x = _block_forward(self.params, f"block{layer}", x, rotation, True,
                               segments=segments)
            if layer in inject and cfg.inject_after_layer:
                x = numerics.add_rows_at(x, inject[layer], positions)
        if rows is not None:
            x, segments = numerics.gather_rows(x, rows[0]), rows[1]
        x = _norm(self.params, "ln_f", x, segments)
        return _linear(self.params, "head", x, segments)


@dataclass
class PreparedInput:
    """Decoder inputs of a packed batch of multimodal sequences, or of one.

    ``segments`` holds the rows of each sample, one after another; the
    decoder runs the batch as one pass in which no sample sees another.
    """

    embeddings: Tensor
    position_ids: np.ndarray  # (seq, 3) int64 (t, h, w) triples, restarting per sample
    visual_positions: np.ndarray  # (visual tokens,) int64 row positions
    deepstack: list[Tensor]  # one tensor per inject layer; empty without visual tokens
    segments: numerics.Segments  # rows per sample


_LEVELS = 4  # encoder states that feed a merger: the final one and the three taps


@dataclass(frozen=True, eq=False)
class BatchPlan:
    """Everything ``prepare_planned`` needs of a batch that reads no
    parameter, checked and laid out once by ``plan_batch``.

    ``passes`` are the encoder runs, sample after sample, each in element
    order.  ``corners[level]`` holds, for that level's merger, the rows of
    each 2x2 block's patches in the stack of every pass's final state and
    taps (``_LEVELS`` states per pass, pass after pass).  ``order`` is the
    gather that interleaves the text rows and the merged rows, or None when
    the text already comes first.  The arrays are the plan's own, read-only.
    """

    tokens: tuple[np.ndarray, ...]  # all samples' text token ids as one array, or () if none
    passes: tuple[tuple[PatchGrid, ...], ...]
    corners: tuple[np.ndarray, ...]
    merged: numerics.Segments | None  # merged rows of each sample that has any
    order: np.ndarray | None
    position_ids: np.ndarray
    visual_positions: np.ndarray
    segments: numerics.Segments  # rows per sample

    def __post_init__(self):
        for a in (*self.tokens, *self.corners, self.order, self.position_ids,
                  self.visual_positions):
            if a is not None:
                a.flags.writeable = False


def plan_batch(samples: Sequence[tuple[MultimodalSequence, Mapping[int, PatchGrid]]]
               ) -> BatchPlan:
    """Check a batch of (sequence, grids) samples and lay it out for
    ``VisionLanguageModel.prepare_planned``.

    ``grids`` maps element indices of image blocks / frame groups to patch
    grids whose sides are twice the element's token grid (the merger halves
    each side).  Each run of consecutive grids of one shape in a sample makes
    one encoder pass, and each sample's position ids restart.
    """
    if not samples:
        raise ConfigError("cannot prepare an empty batch")
    masks, ids, sides, passes = [], [], [], []
    for seq, grids in samples:
        kind, count, gh, gw = seq.columns
        visual = np.flatnonzero(kind != TEXT).tolist()
        stray = set(grids).difference(visual)
        if stray:
            raise ConfigError(f"element {min(stray)} has a patch grid but is not an image "
                              "block or frame group of the sequence")
        for idx in visual:
            if idx not in grids:
                raise ConfigError(f"element {idx} has no patch grid")
            grid = grids[idx]
            if grid.gh != 2 * gh[idx] or grid.gw != 2 * gw[idx]:
                raise ShapeError(
                    f"element {idx}: patch grid {grid.gh}x{grid.gw} is not twice "
                    f"the token grid {gh[idx]}x{gw[idx]}")
            sides.append((grid.gh, grid.gw))
        if not count.sum():
            raise ConfigError("cannot prepare an empty sequence")
        passes += [tuple(run) for _, run in
                   groupby([grids[idx] for idx in visual], lambda g: (g.gh, g.gw))]
        masks.append(np.repeat(kind != TEXT, count))
        ids.append(assign_position_ids(seq))

    tokens = np.concatenate([seq.tokens for seq, _ in samples]).astype(np.int64)
    mask = np.concatenate(masks)
    order = np.argsort(np.argsort(mask, kind="stable"))
    corners, merged = (), None
    if passes:
        # Row r of one level's stack of states, pass after pass, is row
        # r + shift[r] + level * size[r] of the stack of every pass's levels.
        sizes = np.array([len(run) * run[0].gh * run[0].gw for run in passes])
        shift = np.repeat((_LEVELS - 1) * (np.cumsum(sizes) - sizes), sizes)
        size = np.repeat(sizes, sizes)
        rows = _block_corners(sides)
        corners = tuple(rows + (shift + level * size)[rows] for level in range(_LEVELS))
        merged = numerics.Segments(n for n in map(np.count_nonzero, masks) if n)
    return BatchPlan(
        tokens=(tokens,) if tokens.size else (),
        passes=tuple(passes),
        corners=corners,
        merged=merged,
        order=None if (order == np.arange(len(order))).all() else order,
        position_ids=np.concatenate(ids),
        visual_positions=np.flatnonzero(mask),
        segments=numerics.Segments(len(m) for m in masks),
    )


class VisionLanguageModel:
    """Bundle of encoder, mergers, and decoder with named parameters.

    Parameter names are prefixed by component (``encoder.``, ``merger.``,
    ``decoder.``) so training stages can freeze whole components.  The
    names are decided once, here: ``_slots`` maps each one to the component
    ``params`` dict that holds it and its key there.
    """

    def __init__(self, config: ModelConfig, rng: Rng):
        self.config = config
        self.encoder = VisionEncoder(config, rng.split("encoder"))
        self.main_merger = Merger(config.dim, config.llm_dim, rng.split("merger_main"))
        self.tap_mergers = [
            Merger(config.dim, config.llm_dim, rng.split(f"merger_tap{i}"))
            for i in range(3)
        ]
        self.decoder = Decoder(config, rng.split("decoder"))
        components = {"encoder": self.encoder.params, "merger.main": self.main_merger.params,
                      **{f"merger.tap{i}": m.params for i, m in enumerate(self.tap_mergers)},
                      "decoder": self.decoder.params}
        self._slots = {f"{prefix}.{key}": (params, key)
                       for prefix, params in components.items() for key in params}

    def parameters(self) -> dict[str, Tensor]:
        return {name: params[key] for name, (params, key) in self._slots.items()}

    def set_parameter(self, name: str, value: Tensor) -> None:
        """Replace parameter ``name``; a name ``parameters()`` does not list raises KeyError."""
        params, key = self._slots[name]
        params[key] = value

    @staticmethod
    def component_of(name: str) -> str:
        return name.split(".", 1)[0]

    def prepare(self, seq: MultimodalSequence,
                grids: Mapping[int, PatchGrid]) -> PreparedInput:
        """``prepare_planned`` of the one-sample batch (``seq``, ``grids``)."""
        return self.prepare_planned(plan_batch([(seq, grids)]))

    def prepare_planned(self, plan: BatchPlan) -> PreparedInput:
        """Embeddings, ids and DeepStack features of a planned batch, one
        segment per sample: the tensor work, which a batch that runs step
        after step repeats on its one plan.

        Every sample's text is embedded with one gather and each of the
        plan's runs of grids makes one encoder pass.  Each merger gathers
        its blocks and runs once over the batch, one run of rows per sample,
        so each sample gets the bits of its own ``prepare``.  The mergers
        gather from one stack of every pass's final state and taps, pass
        after pass.  The stack hands each encoder state its gradient terms
        sample after sample, as one ``prepare`` per sample does, even when
        two samples share a grid object and so one encoder memo entry.  The
        merged rows and each DeepStack level are in the order of the batch's
        visual tokens.  The embeddings stack the samples' text, then the
        merged rows; the plan's ``order`` interleaves them.
        """
        embed = self.decoder.params["embed"]
        parts = [numerics.gather_rows(embed, tokens) for tokens in plan.tokens]
        deepstack = []
        if plan.passes:
            encoded = [self.encoder.forward(*run) for run in plan.passes]
            stack = numerics.concat_rows([state for final, taps in encoded
                                          for state in (final, *taps)])
            merged = [_merge(stack, corners, merger, plan.merged)
                      for corners, merger in zip(plan.corners,
                                                 (self.main_merger, *self.tap_mergers))]
            parts.append(merged[0])
            deepstack = merged[1:]
        embeddings = numerics.concat_rows(parts)
        if plan.order is not None:
            embeddings = numerics.gather_rows(embeddings, plan.order)
        return PreparedInput(
            embeddings=embeddings,
            position_ids=plan.position_ids,
            visual_positions=plan.visual_positions,
            deepstack=deepstack,
            segments=plan.segments,
        )

    def forward(self, prepared: PreparedInput,
                rows: tuple[np.ndarray, numerics.Segments] | None = None) -> Tensor:
        """Logits of every row, or of ``rows`` only, as ``Decoder.forward`` gives them."""
        return self.decoder.forward(prepared.embeddings, prepared.position_ids,
                                    prepared.deepstack, prepared.visual_positions,
                                    prepared.segments, rows)
