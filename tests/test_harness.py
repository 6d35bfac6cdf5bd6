import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vlmlab import mrope
from vlmlab.cli import _NIAH_KEYS
from vlmlab.errors import ConfigError, check_config_types
from vlmlab.harness import (NiahConfig, StageConfig, build_niah_sequence, emit_report,
                            load_stage_config, make_synthetic_batch, run_niah_probe, train_toy)
from vlmlab.harness.niah import run_niah_grid
from vlmlab.harness.stages import STAGE_NAMES
from vlmlab.seeding import Rng
from vlmlab.timeline import interleave_timestamps
from vlmlab.vision import ModelConfig, VisionLanguageModel


def tiny_model(seed=0, **overrides):
    cfg = ModelConfig(encoder_depth=3, decoder_depth=3, dim=4, llm_dim=8,
                      head_dim=4, taps=(0, 1, 2), vocab=32, **overrides)
    return cfg, VisionLanguageModel(cfg, Rng(seed))


def param_bytes(model):
    return {k: v.data.tobytes() for k, v in model.parameters().items()}


class TestStages:
    def test_builtin_table(self):
        expected = {"S0": 8192, "S1": 8192, "S2": 32768, "S3": 262144}
        for name, seq_len in expected.items():
            stage = load_stage_config(name)
            assert stage.sequence_length == seq_len

    def test_s0_trains_only_merger(self):
        assert load_stage_config("S0").trainable == frozenset({"merger"})

    def test_budgets_scaled(self):
        assert load_stage_config("S0").token_budget == 6700
        assert load_stage_config("S1").token_budget == 100000
        assert load_stage_config("S3").token_budget == 10_000

    def test_unknown_stage_lists_valid_names(self):
        with pytest.raises(ConfigError, match="S0, S1, S2, S3"):
            load_stage_config("S9")

    def test_schedule_lengths_non_decreasing(self):
        lengths = [load_stage_config(name).sequence_length for name in STAGE_NAMES]
        assert lengths == sorted(lengths)

    def test_s0_freeze_rule_enforced(self):
        with pytest.raises(ConfigError, match="only the merger"):
            StageConfig("S0", 8192, frozenset({"merger", "decoder"}), 100)

    def test_stage_file_round_trip(self, tmp_path):
        path = tmp_path / "stage.json"
        path.write_text(json.dumps({"name": "S2", "token_budget": 123}), encoding="utf-8")
        stage = load_stage_config(str(path))
        assert stage.name == "S2"
        assert stage.token_budget == 123
        assert stage.sequence_length == 32768

    def test_stage_file_trainable_is_an_array(self, tmp_path):
        path = tmp_path / "stage.json"
        path.write_text(json.dumps({"name": "S2", "trainable": ["merger"]}), encoding="utf-8")
        assert load_stage_config(str(path)).trainable == frozenset({"merger"})
        path.write_text(json.dumps({"name": "S2", "trainable": "merger"}), encoding="utf-8")
        with pytest.raises(ConfigError, match="'trainable' must be a JSON array of strings"):
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

    def test_accuracy_degrades_gracefully_with_overlap(self):
        alloc = mrope.build_frequency_allocation(16)
        accuracies = []
        for overlap in (0.0, 0.5, 0.9, 1.0):
            cfg = NiahConfig(trials=10, overlap=overlap, signature_noise=0.05,
                             durations_min=(0.5,), needle_depths=(0.3, 0.7), seed=0)
            grid = run_niah_grid(cfg, alloc)
            accuracies.append(float(np.mean(grid["accuracies"])))
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


class TestReports:
    def test_minimal_grid_csv(self, tmp_path):
        _, csv_path = emit_report([1.0], [0.5], [[1.0]], trials=1, out_dir=tmp_path)
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "duration,depth,accuracy"

    def test_grid_line_count(self, tmp_path):
        acc = [[1.0] * 9 for _ in range(3)]
        _, csv_path = emit_report([1.0, 2.0, 3.0], [x / 10 for x in range(1, 10)],
                                  acc, trials=2, out_dir=tmp_path)
        assert len(csv_path.read_text().splitlines()) == 28

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="non-empty"):
            emit_report([], [], [], trials=1, out_dir=tmp_path)

    def test_ragged_grid_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="rectangular"):
            emit_report([1.0, 2.0], [0.1, 0.2], [[1.0, 1.0], [1.0]], trials=1,
                        out_dir=tmp_path)

    def test_json_round_trip(self, tmp_path):
        acc = [[0.5, 1.0], [0.0, 0.25]]
        json_path, _ = emit_report([1.0, 2.0], [0.1, 0.9], acc, trials=4,
                                   out_dir=tmp_path, config={"seed": 3})
        doc = json.loads(json_path.read_text(encoding="utf-8"))
        assert doc["durations"] == [1.0, 2.0]
        assert doc["depths"] == [0.1, 0.9]
        assert doc["config"] == {"seed": 3}
        assert [[c["accuracy"] for c in doc["cells"][2 * i:2 * i + 2]] for i in range(2)] == acc
        assert [(c["duration"], c["depth"], c["trials"]) for c in doc["cells"]] == [
            (1.0, 0.1, 4), (1.0, 0.9, 4), (2.0, 0.1, 4), (2.0, 0.9, 4)]

    def test_byte_stable(self, tmp_path):
        args = ([1.0, 2.0], [0.1, 0.9], [[1.0, 0.5], [0.25, 0.75]], 2)
        j1, c1 = emit_report(*args, out_dir=tmp_path / "a", config={"seed": 0})
        j2, c2 = emit_report(*args, out_dir=tmp_path / "b", config={"seed": 0})
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
    check_config_types(cfg.to_dict(), _NIAH_KEYS, "niah")
    assert NiahConfig(**json.loads(json.dumps(cfg.to_dict()))) == cfg
