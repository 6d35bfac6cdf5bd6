import dataclasses
import hashlib
import json
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from numeric_env import HASWELL, SKYLAKEX, pinned, pinned_in
from vlmlab import mrope, numerics, objective, vision
from vlmlab.errors import ConfigError, ShapeError, check_config_types
from vlmlab.harness import (NiahConfig, StageConfig, build_niah_sequence, emit_report,
                            load_stage_config, make_synthetic_batch, run_niah_probe, train_toy)
from vlmlab.harness import niah, training
from vlmlab.harness.niah import run_niah_grid
from vlmlab.harness.stages import STAGE_NAMES
from vlmlab.harness.training import TrainingBatch, TrainingExample
from vlmlab.seeding import Rng
from vlmlab.sequence import MultimodalSequence, TextSpan
from vlmlab.timeline import interleave_timestamps
from vlmlab.vision import ModelConfig, VisionEncoder, VisionLanguageModel


def sqrt_loss(model, batch):
    """One ``train_toy`` step's loss tensor and token losses under the sqrt
    scheme, without updating the model."""
    return training._weighted_loss(model, batch, objective.gradient_weights(batch.counts, "sqrt"))


def tiny_model(seed=0, **overrides):
    cfg = ModelConfig(encoder_depth=3, decoder_depth=3, dim=4, llm_dim=8,
                      head_dim=4, taps=(0, 1, 2), vocab=32, **overrides)
    return cfg, VisionLanguageModel(cfg, Rng(seed))


def param_bytes(model):
    return {k: v.data.tobytes() for k, v in model.parameters().items()}


def param_digest(model):
    """SHA-256 of the model's parameters, by name and in order."""
    h = hashlib.sha256()
    for name, param in model.parameters().items():
        h.update(name.encode())
        h.update(param.data.tobytes())
    return h.hexdigest()


# The default model's parameters as built from Rng(0).split("model").
INIT_DIGEST = "078799625d986457e6172cce7890c853b763a9b7b44e32ace32af746e7c18241"


class TestStages:
    def test_builtin_table(self):
        expected = {"S0": 8192, "S1": 8192, "S2": 32768, "S3": 262144}
        for name, seq_len in expected.items():
            stage = load_stage_config(name)
            assert stage.sequence_length == seq_len

    def test_s0_trains_only_merger(self):
        assert load_stage_config("S0").trainable == frozenset({"merger"})

    def test_unknown_stage_lists_valid_names(self):
        with pytest.raises(ConfigError, match="S0, S1, S2, S3"):
            load_stage_config("S9")

    def test_schedule_lengths_non_decreasing(self):
        lengths = [load_stage_config(name).sequence_length for name in STAGE_NAMES]
        assert lengths == sorted(lengths)

    @pytest.mark.parametrize("args, message", [
        (("S9", 8192, frozenset({"merger"})), "unknown stage 'S9'; valid names: S0, S1"),
        (("S1", 0, frozenset({"merger"})), "sequence_length must be positive"),
    ], ids=["unknown-name", "zero-length"])
    def test_stage_fields_checked(self, args, message):
        with pytest.raises(ConfigError, match=message):
            StageConfig(*args)

    def test_s0_freeze_rule_enforced(self):
        with pytest.raises(ConfigError, match="only the merger"):
            StageConfig("S0", 8192, frozenset({"merger", "decoder"}))

    def test_stage_file_round_trip(self, tmp_path):
        path = tmp_path / "stage.json"
        path.write_text(json.dumps({"name": "S2", "sequence_length": 123}), encoding="utf-8")
        stage = load_stage_config(str(path))
        assert stage.name == "S2"
        assert stage.sequence_length == 123
        assert stage.trainable == frozenset({"encoder", "merger", "decoder"})

    def test_stage_file_trainable_is_an_array(self, tmp_path):
        path = tmp_path / "stage.json"
        path.write_text(json.dumps({"name": "S2", "trainable": ["merger"]}), encoding="utf-8")
        assert load_stage_config(str(path)).trainable == frozenset({"merger"})
        path.write_text(json.dumps({"name": "S2", "trainable": "merger"}), encoding="utf-8")
        with pytest.raises(ConfigError, match="'trainable' must hold strings in an array"):
            load_stage_config(str(path))


class TestTrainToy:
    def test_s0_freezes_encoder_and_decoder_bitwise(self):
        cfg, model = tiny_model()
        before = param_bytes(model)
        batch = make_synthetic_batch(cfg, Rng(1).split("data"), n_examples=4, text_len=6)
        train_toy(model, load_stage_config("S0"), batch, steps=3, lr=0.5)
        after = param_bytes(model)
        for name in before:
            frozen = not name.startswith("merger.")
            if frozen:
                assert before[name] == after[name], name
        assert any(before[n] != after[n] for n in before if n.startswith("merger."))

    def test_s0_trajectory_matches_the_full_backward(self):
        """Merger-only gradients give the bytes a full backward gives."""
        cfg, model = tiny_model(seed=3)
        _, reference = tiny_model(seed=3)
        batch = make_synthetic_batch(cfg, Rng(3).split("data"), n_examples=4, text_len=6)
        stage = load_stage_config("S0")
        result = train_toy(model, stage, batch, steps=20, lr=0.3)
        losses = []
        for _ in range(20):
            loss, _ = sqrt_loss(reference, batch)
            losses.append(loss.item())
            loss.backward()
            for name, param in reference.parameters().items():
                if param.grad is not None and reference.component_of(name) in stage.trainable:
                    reference.set_parameter(
                        name, numerics.parameter(param.data - 0.3 * param.grad))
        assert result.losses == losses
        assert param_bytes(model) == param_bytes(reference)
        assert [name for name, param in model.parameters().items()
                if param.grad is not None and not name.startswith("merger.")] == []

    def test_s0_runs_no_encoder_gradient_function(self, monkeypatch):
        cfg, model = tiny_model()
        batch = make_synthetic_batch(cfg, Rng(1).split("data"), n_examples=2, text_len=5)
        runs = []
        forward = VisionEncoder.forward

        def counted(fn):
            def wrapper(*args):
                runs.append(fn)
                return fn(*args)
            return wrapper

        def counting_forward(self, *grids):
            # Wrap the gradient function of every tape node the encoder made.
            final, taps = forward(self, *grids)
            stack, seen = [final, *taps], set()
            while stack:
                node = stack.pop()
                if id(node) in seen or node._backward is None:
                    continue
                seen.add(id(node))
                node._backward = counted(node._backward)
                stack.extend(node._parents)
            return final, taps

        monkeypatch.setattr(VisionEncoder, "forward", counting_forward)
        train_toy(model, load_stage_config("S0"), batch, steps=1, lr=0.1)
        assert runs == []
        train_toy(model, load_stage_config("S1"), batch, steps=1, lr=0.1)
        assert runs

    def test_a_later_stage_applies_no_stale_gradient(self):
        """A text-only S1 step leaves the encoder alone after an S0 step."""
        cfg, model = tiny_model()
        batch = make_synthetic_batch(cfg, Rng(0).split("data"))
        train_toy(model, load_stage_config("S0"), batch, steps=1, lr=0.1)
        before = param_bytes(model)
        text_only = TrainingBatch([example for example in batch if not example.grids], cfg.vocab)
        assert len(text_only) == 4
        train_toy(model, load_stage_config("S1"), text_only, steps=1, lr=0.1)
        after = param_bytes(model)
        assert [n for n in before if n.startswith("encoder.") and before[n] != after[n]] == []
        assert any(before[n] != after[n] for n in before if n.startswith("decoder."))

    def test_outside_gradient_of_an_unreached_parameter_is_not_applied(self):
        """A merger gradient from a backward before the call stays unapplied
        by a text-only S0 step, whose loss reaches no merger."""
        cfg, model = tiny_model()
        batch = make_synthetic_batch(cfg, Rng(0).split("data"))
        sqrt_loss(model, batch)[0].backward()
        mergers = {n: p for n, p in model.parameters().items() if n.startswith("merger.")}
        assert all(p.grad is not None for p in mergers.values())
        before = param_bytes(model)
        text_only = TrainingBatch([example for example in batch if not example.grids], cfg.vocab)
        train_toy(model, load_stage_config("S0"), text_only, steps=1, lr=0.1)
        assert param_bytes(model) == before
        assert all(model.parameters()[n] is p for n, p in mergers.items())

    def test_flags_follow_each_calls_stage(self):
        """After a call, exactly the stage's trainable parameters require a
        gradient; frozen ones are leaves with unchanged bytes."""
        cfg, model = tiny_model()
        batch = make_synthetic_batch(cfg, Rng(0).split("data"), n_examples=2, text_len=5)
        for name in ("S0", "S1", "S0"):
            stage = load_stage_config(name)
            before = param_bytes(model)
            train_toy(model, stage, batch, steps=1, lr=0.1)
            after = param_bytes(model)
            for n, p in model.parameters().items():
                trainable = model.component_of(n) in stage.trainable
                assert p.requires_grad == trainable and not p._parents, (name, n)
                assert trainable or before[n] == after[n], (name, n)

    def test_parameter_and_loss_digests_pinned(self):
        """The default model's parameters, by name and in order, after init and after
        20 S0 steps, and the losses of those steps, hash to pinned values."""
        cfg, rng = ModelConfig(), Rng(0)
        model = VisionLanguageModel(cfg, rng.split("model"))
        assert len(model.parameters()) == 134
        assert param_digest(model) == INIT_DIGEST
        batch = make_synthetic_batch(cfg, rng.split("data"))
        losses = train_toy(model, load_stage_config("S0"), batch, steps=20, lr=0.1).losses
        assert param_digest(model) == pinned({
            SKYLAKEX: "d603e5d02338093db75e7fcf3f6dedc279cffcd40f12c06589995c1524dcb7b3",
            HASWELL: "6c32581010bb7b3c489431eca45b417dd9bf213c1ca403975947285821c64f06"}), \
            pinned_in()
        assert hashlib.sha256(np.array(losses).tobytes()).hexdigest() == pinned(dict.fromkeys(
            (SKYLAKEX, HASWELL),
            "000ee5711ea09234811ad231b3260ae2623c337c3bbde1b3b88f08b8704adcaa")), pinned_in()
        assert (losses[0], losses[-1]) == pinned(dict.fromkeys(
            (SKYLAKEX, HASWELL), (5.701772113914188, 5.698126242992732))), pinned_in()

    def test_s1_parameter_and_loss_digests_pinned(self):
        """Three S1 steps update the encoder too: each step's loss must come from
        the encoder's current parameters, so the digests pin every re-encoding."""
        cfg, rng = ModelConfig(), Rng(0)
        model = VisionLanguageModel(cfg, rng.split("model"))
        assert param_digest(model) == INIT_DIGEST
        before = param_bytes(model)
        batch = make_synthetic_batch(cfg, rng.split("data"))
        losses = train_toy(model, load_stage_config("S1"), batch, steps=3, lr=0.1).losses
        after = param_bytes(model)
        assert all(before[n] != after[n] for n in before if n.startswith("encoder.block"))
        assert param_digest(model) == pinned({
            SKYLAKEX: "eda64d279a61e54b0611568c1fecd364fb50e2de2a06426d0e721142561bf5a8",
            HASWELL: "b9fd70c384662ebea2e8758063c60b5551e3e04dfd7e48b0ee5efc96edec5711"}), \
            pinned_in()
        assert hashlib.sha256(np.array(losses).tobytes()).hexdigest() == pinned(dict.fromkeys(
            (SKYLAKEX, HASWELL),
            "1b231efcea50d0ae7c293ab3c5d25b81898672cfb610278668cfd140f2513e15")), pinned_in()
        assert losses == pinned(dict.fromkeys(
            (SKYLAKEX, HASWELL), [5.701772113914188, 5.6660795600242135, 5.642397884946508])), \
            pinned_in()

    @pytest.mark.parametrize("stage", ["S0", "S1"])
    def test_batch_loss_equals_a_per_example_loop(self, stage):
        """One packed decoder pass gives the loss, token losses, scheme
        aggregates and parameter gradients, byte for byte, of one decoder
        pass per example with the examples' weighted terms added in order."""
        cfg, rng = ModelConfig(), Rng(0)
        model = VisionLanguageModel(cfg, rng.split("model"))
        batch = make_synthetic_batch(cfg, rng.split("data"))
        train_toy(model, load_stage_config(stage), batch, steps=0, lr=0.0)  # sets the flags

        def differentiate(loss):
            loss.backward()
            grads = {name: param.grad for name, param in model.parameters().items()}
            for param in model.parameters().values():
                param.grad = None
            return loss.data.tobytes(), grads

        packed_loss, _ = sqrt_loss(model, batch)
        (packed_nll,) = packed_loss._parents
        packed_schemes = training._aggregates(packed_nll.data, batch)
        packed, packed_grads = differentiate(packed_loss)

        nlls = []
        for example in batch:
            logits = model.forward(model.prepare(example.sequence, example.grids))
            picked = numerics.gather_rows(logits, example.target_positions)
            nlls.append(numerics.token_nll(picked, example.target_ids))
        losses = np.concatenate([nll.data for nll in nlls])
        counts = [len(nll.data) for nll in nlls]
        terms = [numerics.mul(numerics.sum_all(nll), numerics.Tensor(w))
                 for nll, w in zip(nlls, objective.gradient_weights(counts, "sqrt"))]
        total = terms[0]
        for term in terms[1:]:
            total = numerics.add(total, term)
        reference, reference_grads = differentiate(total)

        assert packed == reference
        assert packed_nll.data.tobytes() == losses.tobytes()
        assert packed_schemes == {name: objective.aggregate(losses, counts, name)
                                  for name in objective.SCHEMES}
        trained = {name for name, grad in reference_grads.items() if grad is not None}
        assert {model.component_of(name) for name in trained} == (
            {"merger"} if stage == "S0" else {"encoder", "merger", "decoder"})
        for name, grad in packed_grads.items():
            want = reference_grads[name]
            assert (grad is None) == (want is None), name
            assert grad is None or grad.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("positions", [[0, 6], [-1], [True], [0.5]],
                             ids=["past-the-end", "negative", "bool", "float"])
    def test_target_positions_outside_their_example_rejected(self, positions):
        """A target position must name a row of its own example: moved by
        the example's first row, it would otherwise read another example."""
        cfg, _ = tiny_model()
        batch = make_synthetic_batch(cfg, Rng(1).split("data"), n_examples=2, text_len=4)
        assert batch[0].sequence.token_count() == 6
        examples = [replace(batch[0], target_positions=positions,
                            target_ids=[1] * len(positions)), *batch[1:]]
        with pytest.raises(ShapeError, match=r"example 0: target positions must be integers "
                                             r"in \[0, 6\)"):
            TrainingBatch(examples, cfg.vocab)

    def test_target_counts_checked_per_example(self):
        """Three positions and two ids in one example, two and three in the
        next, would line up over the batch's one loss node; each example is
        checked on its own."""
        cfg, _ = tiny_model()
        batch = make_synthetic_batch(cfg, Rng(1).split("data"), n_examples=2, text_len=4)
        examples = [replace(batch[0], target_positions=[0, 1, 2], target_ids=[1, 2]),
                    replace(batch[1], target_positions=[0, 1], target_ids=[1, 2, 3])]
        with pytest.raises(ShapeError, match="example 0: 3 target positions for 2 target ids"):
            TrainingBatch(examples, cfg.vocab)

    @pytest.mark.parametrize("empty", [[], np.zeros(0, dtype=np.int64)], ids=["list", "array"])
    def test_an_example_without_targets_is_named(self, empty):
        """An example with no target would be a run of no loss rows; it is
        refused by its index, as the other target checks refuse theirs."""
        cfg, _ = tiny_model()
        batch = make_synthetic_batch(cfg, Rng(1).split("data"), n_examples=3, text_len=4)
        examples = [*batch[:2], replace(batch[2], target_positions=empty, target_ids=empty)]
        with pytest.raises(ShapeError, match="^example 2: no targets; each example needs at "
                                             "least one$"):
            TrainingBatch(examples, cfg.vocab)

    def test_targets_checked_once_per_call_before_any_step(self):
        """Each example's positions and ids are checked once, when its batch
        is made, not once per step, and a bad target stops the batch from
        being made, so no call can train on it."""
        cfg, model = tiny_model()
        with mock.patch.object(training, "_example_indices",
                               wraps=training._example_indices) as checks:
            batch = make_synthetic_batch(cfg, Rng(1).split("data"), n_examples=3, text_len=4)
            train_toy(model, load_stage_config("S0"), batch, steps=3, lr=0.1)
        assert checks.call_count == 2 * len(batch)
        bad = [*batch[:2], replace(batch[2], target_ids=[1] * (len(batch[2].target_ids) - 1)
                                   + [32])]
        with pytest.raises(ShapeError, match="example 2: target ids"):
            TrainingBatch(bad, cfg.vocab)

    @pytest.mark.parametrize("ids", [[32], [-1], [1.0], [True]],
                             ids=["past-the-vocab", "negative", "float", "bool"])
    def test_target_ids_outside_the_vocabulary_rejected(self, ids):
        cfg, _ = tiny_model()
        batch = make_synthetic_batch(cfg, Rng(1).split("data"), n_examples=2, text_len=4)
        examples = [batch[0], replace(batch[1], target_positions=[0], target_ids=ids)]
        with pytest.raises(ShapeError, match=r"example 1: target ids must be integers "
                                             r"in \[0, 32\)"):
            TrainingBatch(examples, cfg.vocab)

    def test_zero_lr_changes_nothing(self):
        cfg, model = tiny_model()
        before = param_bytes(model)
        batch = make_synthetic_batch(cfg, Rng(2).split("data"), n_examples=2, text_len=5)
        train_toy(model, load_stage_config("S1"), batch, steps=2, lr=0.0)
        assert param_bytes(model) == before

    def test_negative_lr_rejected(self):
        cfg, model = tiny_model()
        batch = make_synthetic_batch(cfg, Rng(3).split("data"), n_examples=1, text_len=4)
        with pytest.raises(ConfigError, match="learning rate"):
            train_toy(model, load_stage_config("S1"), batch, steps=1, lr=-0.1)

    @pytest.mark.parametrize("batch_args, train_args, message", [
        ({}, {"steps": True}, "steps must be an integer, got True"),
        ({}, {"steps": 1.5}, "steps must be an integer, got 1.5"),
        ({}, {"lr": "x"}, "learning rate must be finite and non-negative, got x"),
        ({}, {"lr": True}, "learning rate must be finite and non-negative, got True"),
        ({"n_examples": True}, {}, "n_examples must be an integer, got True"),
        ({"text_len": 2.5}, {}, "text_len must be an integer, got 2.5"),
        ({"text_len": 1}, {}, "text_len must be at least 2"),
    ], ids=["steps-true", "steps-1.5", "lr-str", "lr-true", "n-examples-true", "text-len-2.5",
            "text-len-1"])
    def test_arguments_of_the_wrong_type_rejected(self, batch_args, train_args, message):
        cfg, model = tiny_model()
        with pytest.raises(ConfigError, match=message):
            batch = make_synthetic_batch(cfg, Rng(3).split("data"),
                                         **{"n_examples": 1, "text_len": 4, **batch_args})
            train_toy(model, load_stage_config("S1"), batch, **{"steps": 1, "lr": 0.1, **train_args})

    def test_empty_data_rejected(self):
        cfg, _ = tiny_model()
        with pytest.raises(ConfigError, match="cannot prepare an empty batch"):
            TrainingBatch([], cfg.vocab)

    @pytest.mark.parametrize("n_examples", [0, -1])
    def test_fewer_than_one_example_rejected(self, n_examples):
        cfg, _ = tiny_model()
        with pytest.raises(ConfigError, match=f"n_examples must be at least 1, got {n_examples}"):
            make_synthetic_batch(cfg, Rng(3).split("data"), n_examples=n_examples)

    def test_overfits_small_batch(self):
        cfg, model = tiny_model(seed=0)
        batch = make_synthetic_batch(cfg, Rng(0).split("data"), n_examples=8, text_len=6)
        result = train_toy(model, load_stage_config("S1"), batch, steps=200, lr=0.3)
        assert result.losses[-1] < result.losses[0]
        assert result.losses[-1] < 0.5 * result.losses[0]

    def test_deterministic_under_seed(self):
        curves = []
        for _ in range(2):
            cfg, model = tiny_model(seed=7)
            batch = make_synthetic_batch(cfg, Rng(7).split("data"), n_examples=3, text_len=5)
            curves.append(train_toy(model, load_stage_config("S1"), batch,
                                    steps=4, lr=0.2).losses)
        assert curves[0] == curves[1]

    def test_scheme_weights_shape_gradients(self):
        # per_sample vs per_token give different updates on unequal lengths.
        finals = {}
        for scheme in ("per_sample", "per_token"):
            cfg, model = tiny_model(seed=9)
            batch = make_synthetic_batch(cfg, Rng(9).split("data"), n_examples=4,
                                         text_len=7)
            train_toy(model, load_stage_config("S1"), batch, steps=2, lr=0.2,
                      scheme=scheme)
            finals[scheme] = param_bytes(model)
        assert finals["per_sample"] != finals["per_token"]

    def test_example_longer_than_the_stage_rejected(self):
        """Every example is checked against the stage's sequence_length once,
        before any step; the error names the example and both lengths."""
        cfg, model = tiny_model(seed=6)
        batch = make_synthetic_batch(cfg, Rng(6).split("data"), n_examples=3, text_len=5)
        lengths = [example.sequence.token_count() for example in batch]
        assert lengths == [7, 6, 9]
        at_limit = StageConfig("S1", 9, frozenset({"merger"}))
        assert len(train_toy(model, at_limit, batch, steps=1, lr=0.0).losses) == 1
        short = StageConfig("S1", 7, frozenset({"merger"}))
        with mock.patch("vlmlab.harness.training._weighted_loss") as step, \
                pytest.raises(ConfigError, match=r"^example 2 has 9 tokens, more than "
                                                 r"stage S1's sequence_length 7$"):
            train_toy(model, short, batch, steps=3, lr=0.1)
        step.assert_not_called()

    def test_zero_steps_reports_the_loss_without_updating(self):
        cfg, model = tiny_model(seed=4)
        batch = make_synthetic_batch(cfg, Rng(4).split("data"), n_examples=3, text_len=5)
        before = param_bytes(model)
        result = train_toy(model, load_stage_config("S1"), batch, steps=0, lr=0.3)
        assert len(result.losses) == 1
        assert param_bytes(model) == before
        assert result.per_scheme_initial == result.per_scheme_final
        _, fresh = tiny_model(seed=4)
        two = train_toy(fresh, load_stage_config("S1"), batch, steps=2, lr=0.3)
        assert two.per_scheme_initial == result.per_scheme_initial
        assert two.losses[0] == result.losses[0]

    def test_final_schemes_are_the_last_step_before_its_update(self):
        cfg, model = tiny_model(seed=5)
        batch = make_synthetic_batch(cfg, Rng(5).split("data"), n_examples=3, text_len=5)
        three = train_toy(model, load_stage_config("S1"), batch, steps=3, lr=0.3)
        _, other = tiny_model(seed=5)
        train_toy(other, load_stage_config("S1"), batch, steps=2, lr=0.3)
        zero = train_toy(other, load_stage_config("S1"), batch, steps=0, lr=0.3)
        assert three.per_scheme_final == zero.per_scheme_initial
        assert three.losses[-1] == zero.losses[0]


class TestTrainingPlan:
    """A ``TrainingBatch`` is checked and laid out once, when it is made,
    and every ``train_toy`` call on it reuses that layout."""

    @pytest.mark.parametrize("stage", ["S0", "S1"])
    def test_chained_calls_train_as_one_call(self, stage):
        """Four one-step calls on one batch give the losses and parameter
        bytes of one four-step call."""
        runs = []
        for chained in (False, True):
            cfg, model = tiny_model(seed=2)
            batch = make_synthetic_batch(cfg, Rng(2).split("data"), n_examples=4, text_len=6)
            if chained:
                losses = [train_toy(model, load_stage_config(stage), batch, steps=1,
                                    lr=0.3).losses[0] for _ in range(4)]
            else:
                losses = train_toy(model, load_stage_config(stage), batch, steps=4,
                                   lr=0.3).losses
            runs.append((losses, param_bytes(model)))
        assert runs[0] == runs[1]
        assert len(set(runs[0][0])) == 4

    def test_a_call_on_a_batch_plans_nothing(self):
        """Making a batch assigns its position ids and checks its targets;
        a call on it, under any stage and scheme, or with a model of an
        equal config, does neither."""
        cfg, model = tiny_model()
        with mock.patch.object(vision, "assign_position_ids",
                               wraps=mrope.assign_position_ids) as ids, \
                mock.patch.object(training, "_example_indices",
                                  wraps=training._example_indices) as checks:
            def planned(call):
                """What ``call`` returns, and the position-id assignments
                and target checks it made."""
                before = ids.call_count, checks.call_count
                result = call()
                return result, (ids.call_count - before[0], checks.call_count - before[1])

            def train(data, stage="S0", **kwargs):
                return planned(lambda: train_toy(model, load_stage_config(stage), data,
                                                 steps=1, lr=0.1, **kwargs))[1]

            batch, made = planned(lambda: make_synthetic_batch(cfg, Rng(1).split("data"),
                                                               n_examples=4, text_len=5))
            assert made == (4, 8)
            assert train(batch) == train(batch, "S1") == train(batch, scheme="per_token") == (0, 0)
            model = VisionLanguageModel(replace(cfg), Rng(0))
            assert train(batch) == (0, 0)

    @pytest.mark.parametrize("made", ["list", "other-vocab"])
    def test_only_a_batch_made_with_the_models_vocab_is_trained(self, made):
        """A plain list of examples, or a batch whose targets were checked
        against another vocabulary, raises ``ConfigError`` before any
        parameter changes, also one whose flag the stage would flip."""
        cfg, model = tiny_model()
        batch = make_synthetic_batch(cfg, Rng(1).split("data"), n_examples=3, text_len=4)
        if made == "list":
            data, got = list(batch), "a list"
        else:
            model = VisionLanguageModel(replace(cfg, vocab=64), Rng(0))
            data, got = batch, "one made with vocab 32"
        before = dict(model.parameters())
        assert all(param.requires_grad for param in before.values())
        with pytest.raises(ConfigError, match=f"^train_toy needs a TrainingBatch made with the "
                                              f"model's vocab {model.config.vocab}, got {got}$"):
            train_toy(model, load_stage_config("S0"), data, steps=1, lr=0.1)
        assert all(model.parameters()[name] is param and param.requires_grad
                   and param.grad is None for name, param in before.items())

    def test_a_replaced_bad_target_is_rejected_before_the_model_is_touched(self):
        """Examples are frozen; a bad example made with ``dataclasses.replace``
        is rejected when its batch is made, and a list holding it is refused
        before any parameter changes."""
        cfg, model = tiny_model()
        batch = make_synthetic_batch(cfg, Rng(1).split("data"), n_examples=3, text_len=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            batch[1].target_ids = batch[1].target_ids[:-1]
        bad = replace(batch[1], target_positions=batch[1].target_positions[:-1])
        message = "example 1: 3 target positions for 4 target ids"
        with pytest.raises(ShapeError, match=message):
            TrainingBatch([batch[0], bad, batch[2]], cfg.vocab)
        before = dict(model.parameters())
        with pytest.raises(ConfigError, match="got a list"):
            train_toy(model, load_stage_config("S0"), [batch[0], bad, batch[2]], steps=1, lr=0.1)
        assert all(model.parameters()[name] is param for name, param in before.items())

    def test_an_example_cannot_change(self):
        """A write into an example's arrays or grids raises, and a write into
        the arrays it was made from reaches nothing it holds, so a batch made
        of it later trains on the data it was made with."""
        cfg, model = tiny_model()
        batch = make_synthetic_batch(cfg, Rng(1).split("data"), n_examples=2, text_len=4)
        loss = sqrt_loss(model, batch)[0].item()
        first = batch[0]
        for a in (first.sequence.columns, first.sequence.tokens, first.target_ids,
                  first.target_positions, batch.rows, batch.targets,
                  batch.inputs.position_ids, *batch.inputs.tokens):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1
        with pytest.raises(TypeError):
            first.grids[1] = first.grids[1]
        sources = [first.sequence.columns.copy(), first.sequence.tokens.copy(),
                   first.target_positions.copy(), first.target_ids.copy()]
        made = TrainingExample(MultimodalSequence(*sources[:2], np.zeros(0), np.zeros(0)),
                               dict(first.grids), *sources[2:])
        for a in sources:
            a[:] = 0
        assert all(getattr(made, name).tobytes() == getattr(first, name).tobytes()
                   for name in ("target_positions", "target_ids"))
        assert made.sequence.tokens.tobytes() == first.sequence.tokens.tobytes()
        assert sqrt_loss(model, batch)[0].item() == loss
        assert sqrt_loss(model, TrainingBatch([made, batch[1]], cfg.vocab))[0].item() == loss


class TestNiahBuild:
    def test_needle_index_midpoint(self):
        cfg = NiahConfig(trials=1)
        seq, keys, truth = build_niah_sequence(cfg, 64.0, 0.5)
        assert len(seq.start_times) == 64
        assert truth.group_index == 32  # round(0.5 * 63)
        assert keys.shape == (64, cfg.signature_dim)
        np.testing.assert_array_equal(keys[32], truth.query_signature)
        assert not np.array_equal(keys[31], keys[32])

    def test_single_group(self):
        cfg = NiahConfig(trials=1)
        seq, _, truth = build_niah_sequence(cfg, 1.0, 0.5)
        assert len(seq.start_times) == 1
        assert truth.group_index == 0

    def test_depth_near_one(self):
        cfg = NiahConfig(trials=1)
        _, _, truth = build_niah_sequence(cfg, 10.0, 0.999)
        assert truth.group_index == 9

    def test_depth_bounds(self):
        with pytest.raises(ConfigError, match="depth"):
            build_niah_sequence(NiahConfig(), 10.0, 1.0)

    @pytest.mark.parametrize("duration", [0.0, -1.0])
    def test_duration_must_be_positive(self, duration):
        with pytest.raises(ConfigError, match=f"duration must be positive, got {duration}"):
            build_niah_sequence(NiahConfig(), duration, 0.5)

    def test_ground_truth_timestamp_text(self):
        cfg = NiahConfig(trials=1)
        _, _, truth = build_niah_sequence(cfg, 64.0, 0.5)
        assert truth.timestamp == 32.0
        assert truth.timestamp_text == "<32.0 seconds>"

    def test_frame_cap_respected(self):
        cfg = NiahConfig(num_frames=50, trials=1)
        seq, _, _ = build_niah_sequence(cfg, 1000.0, 0.5)
        assert len(seq.start_times) == 50


class TestNiahProbe:
    def test_orthogonal_needle_found_everywhere(self):
        cfg = NiahConfig(trials=1)
        alloc = mrope.build_frequency_allocation(cfg.signature_dim)
        for duration in (16.0, 256.0):
            for depth in (0.1, 0.5, 0.9):
                seq, keys, truth = build_niah_sequence(cfg, duration, depth)
                result = run_niah_probe(seq, keys, truth.query_signature, alloc)
                assert result.predicted_index == truth.group_index

    def test_identical_groups_margin_near_zero(self):
        alloc = mrope.build_frequency_allocation(16)
        sig = tuple(Rng(4).normal(16))
        base = interleave_timestamps([float(k) for k in range(40)], group_size=1)
        result = run_niah_probe(base, np.tile(sig, (40, 1)), sig, alloc)
        assert abs(result.margin) < 1e-9

    def test_single_group_prediction(self):
        cfg = NiahConfig(trials=1)
        alloc = mrope.build_frequency_allocation(cfg.signature_dim)
        seq, keys, truth = build_niah_sequence(cfg, 1.0, 0.5)
        result = run_niah_probe(seq, keys, truth.query_signature, alloc)
        assert result.predicted_index == 0
        assert (result.scores.dtype, result.scores.shape) == (np.float64, (1,))

    def test_accuracy_degrades_gracefully_with_overlap(self):
        alloc = mrope.build_frequency_allocation(16)
        accuracies = []
        for overlap in (0.0, 0.5, 0.9, 1.0):
            cfg = NiahConfig(trials=10, overlap=overlap, signature_noise=0.05,
                             durations_min=(0.5,), needle_depths=(0.3, 0.7), seed=0)
            accuracies.append(float(np.mean(run_niah_grid(cfg, alloc))))
        assert accuracies[0] == 1.0
        assert accuracies == sorted(accuracies, reverse=True)
        # At full overlap the needle is exchangeable with the hay, so
        # retrieval falls to chance (1/30 groups here) but not below.
        assert accuracies[-1] >= 1.0 / 30

    def test_missing_signature_rejected(self):
        alloc = mrope.build_frequency_allocation(16)
        seq = interleave_timestamps([0.0, 1.0], group_size=1)
        with pytest.raises(ConfigError, match="signature"):
            run_niah_probe(seq, np.ones((1, 16)), tuple(np.ones(16)), alloc)

    @pytest.mark.parametrize("seq, keys, query, match", [
        (MultimodalSequence.of((TextSpan((1,)),)), np.ones((0, 16)), np.ones(16),
         "probe sequence has no frame groups"),
        (None, np.ones((2, 8)), np.ones(8), r"query width \(8,\) vs allocation head_dim 16"),
        (None, np.ones((2, 8)), np.ones(16), "signature width 8 vs query width 16"),
    ], ids=["no-frame-groups", "query-width", "key-width"])
    def test_probe_inputs_checked(self, seq, keys, query, match):
        seq = seq or interleave_timestamps([0.0, 1.0], group_size=1)
        with pytest.raises(ConfigError, match=match):
            run_niah_probe(seq, keys, query, mrope.build_frequency_allocation(16))

    def test_grid_allocation_must_fit_the_signatures(self):
        with pytest.raises(ConfigError, match="allocation head_dim must match signature_dim"):
            run_niah_grid(NiahConfig(), mrope.build_frequency_allocation(8))


grid_configs = st.builds(
    NiahConfig,
    num_frames=st.integers(1, 40),
    needle_depths=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3, unique=True).map(sorted),
    trials=st.integers(1, 3),
    seed=st.integers(0, 2 ** 32),
    # 0.001 min is one group; past num_frames seconds the frames spread out.
    durations_min=st.lists(st.sampled_from([0.001, 0.05, 0.1, 0.5, 1.0]) | st.floats(0.001, 2.0),
                           min_size=1, max_size=4),
    overlap=st.sampled_from([0.0, 0.5, 0.99, 1.0]),
    signature_noise=st.sampled_from([0.0, 0.05]),
    timestamp_style=st.sampled_from(["seconds", "hms"]),
)

# A timeline of more than two row blocks and a partial last one, with a
# 540-frame prefix, and needles in its first, a middle and its last block.
ACROSS_BLOCKS = NiahConfig(num_frames=2 * niah._BLOCK + 37,
                           durations_min=((2 * niah._BLOCK + 37) / 60, 9.0),
                           needle_depths=(0.1, 0.6, 0.99), trials=2)


def assert_cells_score_as_probes(cfg, scheme):
    """Every cell's scores equal, byte for byte, those of run_niah_probe on
    build_niah_sequence's probe, and its hits count that probe's hits."""
    alloc = mrope.build_frequency_allocation(cfg.signature_dim, scheme=scheme)
    expected, accuracies = [], []
    for minutes in cfg.durations_min:
        row = []
        for depth in cfg.needle_depths:
            hits = 0
            for trial in range(cfg.trials):
                seq, keys, truth = build_niah_sequence(cfg, minutes * 60.0, depth, trial)
                result = run_niah_probe(seq, keys, truth.query_signature, alloc)
                expected.append(result.scores.tobytes())
                hits += result.predicted_index == truth.group_index
            row.append(hits / cfg.trials)
        accuracies.append(row)
    with mock.patch.object(niah, "_ranking", wraps=niah._ranking) as ranking:
        grid = run_niah_grid(cfg, alloc)
    scored = [call.args[0].tobytes() for call in ranking.call_args_list]
    assert sorted(scored) == sorted(expected)
    assert grid == accuracies


class TestNiahGrid:
    @given(grid_configs, st.sampled_from(["interleaved", "chunked"]))
    @example(NiahConfig(num_frames=4, durations_min=(1.0, 0.05), needle_depths=(0.5,), trials=1),
             "interleaved")
    def test_cells_score_as_probes(self, cfg, scheme):
        assert_cells_score_as_probes(cfg, scheme)

    @pytest.mark.parametrize("cfg, scheme", [
        (ACROSS_BLOCKS, "interleaved"),
        (replace(ACROSS_BLOCKS, signature_noise=0.05, overlap=0.5), "chunked"),
        (replace(ACROSS_BLOCKS, signature_noise=0.05, timestamp_style="hms"), "interleaved"),
        (replace(ACROSS_BLOCKS, timestamp_style="hms"), "chunked"),
    ])
    def test_cells_across_row_blocks_score_as_probes(self, cfg, scheme):
        assert_cells_score_as_probes(cfg, scheme)

    @pytest.mark.parametrize("durations, builds", [
        (NiahConfig().durations_min, 1),
        ((*NiahConfig().durations_min, 100.0), 2),  # 6,000 s spreads the 4,096 frames
    ])
    def test_one_timeline_per_prefix_family(self, monkeypatch, durations, builds):
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return interleave_timestamps(*args, **kwargs)

        monkeypatch.setattr(niah, "interleave_timestamps", counting)
        run_niah_grid(NiahConfig(durations_min=durations), mrope.build_frequency_allocation(16))
        assert len(calls) == builds

    def test_scored_in_row_blocks(self):
        """No rotation table or score array of the grid spans more than one
        row block, though its timeline spans several."""
        cfg = replace(ACROSS_BLOCKS, signature_noise=0.05)
        with mock.patch.object(niah, "rotation_tables", wraps=niah.rotation_tables) as tables, \
                mock.patch.object(niah, "_scores", wraps=niah._scores) as scores:
            run_niah_grid(cfg, mrope.build_frequency_allocation(cfg.signature_dim))
        spans = [len(call.args[0]) for call in tables.call_args_list]
        spans += [len(call.args[1]) for call in scores.call_args_list]
        assert max(spans) == niah._BLOCK

    @pytest.mark.parametrize("groups, noise", [(16384, 0.0), (4096, 0.05)],
                             ids=["clean", "noisy"])
    def test_scratch_memory_bounded(self, groups, noise):
        """The grid's traced peak exceeds that of building its timeline and
        ids by less than 1 MB: no array of the grid but the hay scores has a
        row per group (the 16-wide keys alone would take 2 MB at 16,384
        groups, and a noisy grid's noise rows 0.5 MB at 4,096)."""
        cfg = NiahConfig(num_frames=groups, durations_min=(300.0,), needle_depths=(0.5,),
                         trials=1, signature_noise=noise)
        alloc = mrope.build_frequency_allocation(cfg.signature_dim)

        def traced_peak(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        timeline = traced_peak(lambda: mrope.frame_group_ids(
            interleave_timestamps(niah._sample(cfg, 300 * 60.0), group_size=1)))
        grid = traced_peak(lambda: run_niah_grid(cfg, alloc))
        assert grid - timeline < 2**20


def grid_config(durations, depths, trials, seed=0):
    return NiahConfig(durations_min=durations, needle_depths=depths, trials=trials, seed=seed)


class TestReports:
    def test_minimal_grid_csv(self, tmp_path):
        _, csv_path = emit_report(grid_config((1.0,), (0.5,), trials=1), [[1.0]], tmp_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "duration,depth,accuracy"

    def test_grid_line_count(self, tmp_path):
        acc = [[1.0] * 9 for _ in range(3)]
        cfg = grid_config((1.0, 2.0, 3.0), tuple(x / 10 for x in range(1, 10)), trials=2)
        _, csv_path = emit_report(cfg, acc, tmp_path)
        assert len(csv_path.read_text().splitlines()) == 28

    def test_ragged_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="rectangular"):
            emit_report(grid_config((1.0, 2.0), (0.1, 0.2), trials=1), [[1.0, 1.0], [1.0]],
                        tmp_path)

    def test_table_of_the_wrong_shape_rejected(self, tmp_path):
        # Rectangular, but two rows of three for three durations by two depths.
        with pytest.raises(ValueError, match="one row per duration"):
            emit_report(grid_config((1.0, 2.0, 3.0), (0.1, 0.2), trials=1),
                        [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], tmp_path)

    def test_json_round_trip(self, tmp_path):
        acc = [[0.5, 1.0], [0.0, 0.25]]
        json_path, _ = emit_report(grid_config((1.0, 2.0), (0.1, 0.9), trials=4, seed=3), acc,
                                   tmp_path)
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        assert doc["durations"] == [1.0, 2.0]
        assert doc["depths"] == [0.1, 0.9]
        assert doc["config"]["seed"] == 3
        assert [[c["accuracy"] for c in doc["cells"][2 * i:2 * i + 2]] for i in range(2)] == acc
        assert [(c["duration"], c["depth"], c["trials"]) for c in doc["cells"]] == [
            (1.0, 0.1, 4), (1.0, 0.9, 4), (2.0, 0.1, 4), (2.0, 0.9, 4)]

    def test_report_reads_the_grid_from_its_config(self, tmp_path):
        cfg = NiahConfig(durations_min=(0.5, 3), needle_depths=(0.25,), trials=5, seed=7,
                         timestamp_style="hms")
        json_path, _ = emit_report(cfg, [[0.4], [1.0]], tmp_path)
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        assert doc["durations"] == list(cfg.durations_min)
        assert doc["depths"] == list(cfg.needle_depths)
        assert [c["trials"] for c in doc["cells"]] == [cfg.trials] * 2
        assert doc["config"] == cfg.to_dict()

    def test_byte_stable(self, tmp_path):
        args = (grid_config((1.0, 2.0), (0.1, 0.9), trials=2), [[1.0, 0.5], [0.25, 0.75]])
        j1, c1 = emit_report(*args, tmp_path / "a")
        j2, c2 = emit_report(*args, tmp_path / "b")
        assert j1.read_bytes() == j2.read_bytes()
        assert c1.read_bytes() == c2.read_bytes()


class TestNiahConfigValidation:
    def test_depths_in_open_interval(self):
        with pytest.raises(ConfigError, match="strictly inside"):
            NiahConfig(needle_depths=(0.0, 0.5))

    def test_depths_increasing(self):
        with pytest.raises(ConfigError, match="increasing"):
            NiahConfig(needle_depths=(0.5, 0.2))

    def test_trials_positive(self):
        with pytest.raises(ConfigError, match="trials"):
            NiahConfig(trials=0)

    def test_durations_positive(self):
        with pytest.raises(ConfigError, match="durations"):
            NiahConfig(durations_min=(0.0,))

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigError, match="durations_min must not be empty"):
            NiahConfig(durations_min=())
        with pytest.raises(ConfigError, match="needle_depths must not be empty"):
            NiahConfig(needle_depths=())

    @pytest.mark.parametrize("field, value", [
        ("durations_min", (float("inf"),)), ("durations_min", (float("nan"),)),
        ("signature_noise", float("nan")), ("signature_noise", float("inf")),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ConfigError, match="finite"):
            NiahConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("num_frames", 2.5), ("trials", 2.5), ("trials", True), ("signature_dim", 4.0),
        ("seed", 1.5),
    ])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be an integer"):
            NiahConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("overlap", True), ("signature_noise", True), ("signature_noise", "0.1"),
        ("durations_min", (True,)), ("durations_min", ("1",)), ("durations_min", 1.0),
        ("durations_min", (10 ** 400,)), ("needle_depths", ("0.5",)), ("needle_depths", (False,)),
    ])
    def test_numbers_must_be_numbers(self, field, value):
        # As in a JSON config, a bool is not a number.
        with pytest.raises(ConfigError, match=f"{field} must (be a|hold) finite number"):
            NiahConfig(**{field: value})

    def test_duration_overflowing_in_seconds_rejected(self):
        with pytest.raises(ConfigError, match="1e\\+308 min overflow in seconds"):
            NiahConfig(durations_min=(1.0, 1e308))

    def test_seed_non_negative(self):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            NiahConfig(seed=-1)


niah_configs = st.builds(
    NiahConfig,
    num_frames=st.integers(1, 10_000),
    needle_depths=st.lists(st.floats(0, 1, exclude_min=True, exclude_max=True),
                           min_size=1, max_size=5, unique=True).map(sorted),
    trials=st.integers(1, 10),
    seed=st.integers(0, 2 ** 63),
    durations_min=st.lists(st.one_of(st.floats(0, 1e6, exclude_min=True), st.integers(1, 10 ** 6)),
                           min_size=1, max_size=5),
    signature_dim=st.integers(1, 32).map(lambda k: 2 * k),
    overlap=st.one_of(st.floats(0, 1), st.integers(0, 1)),
    signature_noise=st.floats(0, 1e3),
    timestamp_style=st.sampled_from(["seconds", "hms"]),
)


@given(niah_configs)
def test_niah_config_round_trip(cfg):
    """A report's config reads back, through JSON and the CLI's key check, as the same config."""
    check_config_types(cfg.to_dict(), NiahConfig.FIELD_TYPES, "niah")
    assert NiahConfig(**json.loads(json.dumps(cfg.to_dict()))) == cfg
