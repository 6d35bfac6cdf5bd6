"""Toy encoder/decoder stack with multi-level visual token injection.

The vision encoder is a small pre-norm transformer over patch features with
two-axis rotary encoding (temporal component frozen to zero).  Hidden
states are tapped at three levels; each tap feeds a dedicated 2x2 merger
that projects four neighbouring patch features into one decoder-width
visual token.  The main merger (over the final encoder output) produces
the visual tokens spliced into the decoder input; the per-tap merger
outputs are added onto the hidden states entering the first decoder layers
at the visual-token positions, adding no sequence length.

``prepare`` packs the patch grids of a sequence by shape: all grids of one
shape go through the encoder as one stack of rows, and through each merger,
in one pass.  Attention stays inside each grid, as one ``attention`` node
over a rank-3 batch that recomputes each grid's probabilities in backward
instead of keeping them, so memory grows linearly with the number of
grids.  One ``gather_rows`` then puts text and visual rows in sequence
order.

The encoder is a memo of its own pure function: a second ``forward`` of
the same grids returns the first call's tensors while the encoder holds the
same parameter objects, and any new parameter object empties the memo.
So the steps of stage S0, which keeps the encoder frozen, encode each grid
once; a backward that does differentiate the encoder walks the remembered
nodes again, from their new upstream gradient.

The decoder is a standard pre-norm causal transformer whose q/k vectors
get the three-axis rotary treatment; its ``attention`` hides later tokens,
running the queries in row blocks that never compute the masked triangle.
A layer keeps no probabilities, only two floats per row, the row max and
sum, from which backward recomputes them one block at a time, so its
memory grows linearly in the sequence length.
Every projection, in the blocks, the mergers and the head, is one
``linear`` node.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from . import numerics
from .errors import NUMBER, ConfigError, ShapeError, check_config_types
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

    ``gh``, ``gw`` and ``dim`` are ints and ``features`` a ``Tensor``.  A
    tensor compares by identity, so two grids are equal, and encode once,
    when they share their shape and their ``features`` object."""

    gh: int
    gw: int
    dim: int
    features: Tensor

    def __post_init__(self):
        for name in ("gh", "gw", "dim"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"patch grid {name} must be an integer, got {value!r}")
        if not isinstance(self.features, Tensor):
            raise ConfigError(f"patch grid features must be a Tensor, "
                              f"got {type(self.features).__name__}")
        if self.gh < 1 or self.gw < 1:
            raise ConfigError(f"patch grid must be at least 1x1, got {self.gh}x{self.gw}")
        if self.features.shape != (self.gh * self.gw, self.dim):
            raise ShapeError(
                f"features {self.features.shape} vs grid {self.gh}x{self.gw} width {self.dim}")


_MODEL_KEY_TYPES = {
    "schema_version": int, "encoder_depth": int, "decoder_depth": int, "dim": int,
    "llm_dim": int, "head_dim": int, "taps": [int], "inject_layers": [int], "vocab": int,
    "rope_base": NUMBER, "rope_scheme": str, "inject_after_layer": bool,
}


@dataclass(frozen=True)
class ModelConfig:
    """Model shape, DeepStack taps and inject layers, and the one rotary
    allocation encoder and decoder share; all validated here, once."""

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
        for name in ("encoder_depth", "decoder_depth", "dim", "llm_dim", "head_dim", "vocab"):
            value = getattr(self, name)
            if type(value) is not int:
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        for name in ("taps", "inject_layers"):
            value = getattr(self, name)
            if value is not None and any(type(v) is not int for v in value):
                raise ConfigError(f"{name} must hold integers, got {value!r}")
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
        check_config_types(raw, _MODEL_KEY_TYPES, "model")
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


def _linear(params: Mapping[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    return numerics.linear(x, params[f"{prefix}.w"], params[f"{prefix}.b"])


def _norm(params: Mapping[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    return numerics.layer_norm(x, params[f"{prefix}.gain"], params[f"{prefix}.bias"])


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
                   groups: int = 1) -> Tensor:
    """One block over ``groups`` equal runs of rows; attention stays inside
    each run, as one fused ``attention`` node.  ``rotation`` is the (cos, sin)
    pair of each row's rotary angles; ``causal`` hides later rows."""
    n = x.shape[0]
    a = _norm(params, f"{prefix}.ln1", x)
    q = numerics.rotate_pairs(_linear(params, f"{prefix}.q", a), *rotation)
    k = numerics.rotate_pairs(_linear(params, f"{prefix}.k", a), *rotation)
    v = _linear(params, f"{prefix}.v", a)
    head_dim = v.shape[1]
    if groups > 1:
        q, k, v = (numerics.reshape(t, (groups, n // groups, head_dim)) for t in (q, k, v))
    mixed = numerics.attention(q, k, v, causal)
    if groups > 1:
        mixed = numerics.reshape(mixed, (n, head_dim))
    x = numerics.add(x, _linear(params, f"{prefix}.o", mixed))
    m = _norm(params, f"{prefix}.ln2", x)
    h = numerics.gelu(_linear(params, f"{prefix}.mlp1", m))
    return numerics.add(x, _linear(params, f"{prefix}.mlp2", h))


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

        Grids of one shape run as one batch: each state holds their rows one
        grid after another, and attention stays inside each grid.

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

    def forward(self, merged_features: Tensor) -> Tensor:
        h = numerics.gelu(_linear(self.params, "fc1", merged_features))
        return _linear(self.params, "fc2", h)


def merge_2x2(level_features: Tensor, gh: int, gw: int, merger: Merger) -> Tensor:
    """Concatenate disjoint 2x2 feature blocks and project to decoder width.

    ``level_features`` holds one or more gh x gw grids, row-major, one after
    another.  The grid must be even on both axes; padding odd grids is the
    caller's job.  Each block becomes the features of its top-left,
    top-right, bottom-left and bottom-right patch side by side.  Output rows
    follow grid order, then block row-major order: gh*gw/4 per grid.
    """
    if gh % 2 or gw % 2:
        raise ShapeError(f"merge_2x2 needs even grid sides, got {gh}x{gw}")
    rows = level_features.shape[0]
    if level_features.shape != (rows, merger.dim) or rows == 0 or rows % (gh * gw):
        raise ShapeError(f"features {level_features.shape} vs grid {gh}x{gw} width {merger.dim}")
    # First row of each block, as (grid, block row, block col), then its four corners.
    top_left = (np.arange(0, rows, gh * gw)[:, None, None]
                + np.arange(0, gh * gw, 2 * gw)[None, :, None]
                + np.arange(0, gw, 2)[None, None, :])
    corners = top_left.reshape(-1, 1) + np.array([0, 1, gw, gw + 1])
    blocks = numerics.gather_rows(level_features, corners.reshape(-1))
    return merger.forward(numerics.reshape(blocks, (len(corners), 4 * merger.dim)))


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
                positions: Sequence[int] = ()) -> Tensor:
        """Run the decoder stack; returns (seq, vocab) logits.

        ``deepstack`` holds one tensor of visual tokens per inject layer, in
        ``config.inject_layers`` order, or nothing; each is added at
        ``positions`` onto its layer's input hidden state (or its output,
        under the post-layer ablation).  The sequence never grows.
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
            x = _block_forward(self.params, f"block{layer}", x, rotation, True)
            if layer in inject and cfg.inject_after_layer:
                x = numerics.add_rows_at(x, inject[layer], positions)
        x = _norm(self.params, "ln_f", x)
        return _linear(self.params, "head", x)


def _in_order(x: Tensor, order: np.ndarray) -> Tensor:
    """Rows ``order`` of ``x``; ``x`` itself when that is every row in turn."""
    if (order == np.arange(len(order))).all():
        return x
    return numerics.gather_rows(x, order)


@dataclass
class PreparedInput:
    """A multimodal sequence lowered to decoder inputs."""

    embeddings: Tensor
    position_ids: np.ndarray  # (seq, 3) int64 (t, h, w) triples
    visual_positions: list[int]
    deepstack: list[Tensor]  # one tensor per inject layer; empty without visual tokens


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
        """Lower a sequence to embeddings, ids, and deepstack features.

        ``grids`` maps element indices of image blocks / frame groups to
        patch grids whose sides are twice the element's token grid (the
        merger halves each side).

        All text is embedded with one gather.  Grids of one shape make one
        encoder pass and one pass per merger; their token rows follow the
        text rows, one shape after another.  Each element is tagged with its
        part of that stack, 0 for text and 1 + k for the k-th grid shape, so
        a stable sort of the tokens' tags gives the stack: ``order[i]`` is
        the row of sequence token i in it.
        """
        kind, count, gh, gw = seq.columns
        visual = np.flatnonzero(kind != TEXT).tolist()
        stray = set(grids).difference(visual)
        if stray:
            raise ConfigError(f"element {min(stray)} has a patch grid but is not an image "
                              "block or frame group of the sequence")
        by_shape: dict[tuple[int, int], list[PatchGrid]] = {}
        tags = np.zeros(len(kind), dtype=np.int64)
        for idx in visual:
            if idx not in grids:
                raise ConfigError(f"element {idx} has no patch grid")
            grid = grids[idx]
            if grid.gh != 2 * gh[idx] or grid.gw != 2 * gw[idx]:
                raise ShapeError(
                    f"element {idx}: patch grid {grid.gh}x{grid.gw} is not twice "
                    f"the token grid {gh[idx]}x{gw[idx]}")
            by_shape.setdefault((grid.gh, grid.gw), []).append(grid)
            tags[idx] = list(by_shape).index((grid.gh, grid.gw)) + 1

        token_tags = np.repeat(tags, count)
        rows, n_text = len(token_tags), len(seq.tokens)
        if rows == 0:
            raise ConfigError("cannot prepare an empty sequence")
        order = np.empty(rows, dtype=np.int64)
        order[np.argsort(token_tags, kind="stable")] = np.arange(rows)
        visual_positions = np.flatnonzero(token_tags)

        parts = [numerics.gather_rows(self.decoder.params["embed"], seq.tokens)] if n_text else []
        tap_parts: list[list[Tensor]] = [[], [], []]
        for (h, w), batch in by_shape.items():
            final, taps = self.encoder.forward(*batch)
            parts.append(merge_2x2(final, h, w, self.main_merger))
            for level, (tap_state, merger) in enumerate(zip(taps, self.tap_mergers)):
                tap_parts[level].append(merge_2x2(tap_state, h, w, merger))
        visual_order = order[visual_positions] - n_text
        return PreparedInput(
            embeddings=_in_order(numerics.concat_rows(parts), order),
            position_ids=assign_position_ids(seq),
            visual_positions=visual_positions.tolist(),
            deepstack=[_in_order(numerics.concat_rows(level), visual_order)
                       for level in tap_parts] if by_shape else [],
        )

    def forward(self, prepared: PreparedInput) -> Tensor:
        return self.decoder.forward(prepared.embeddings, prepared.position_ids,
                                    prepared.deepstack, prepared.visual_positions)
