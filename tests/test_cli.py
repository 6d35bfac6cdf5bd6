import io
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest

import vlmlab
from vlmlab import cli, timeline
from vlmlab.cli import main
from vlmlab.errors import ConfigError
from vlmlab.harness import NiahConfig, StageConfig
from vlmlab.timeline import SamplingPolicy
from vlmlab.vision import ModelConfig, PatchGrid


# An array nested past the JSON decoder's recursion limit.
DEEP_ARRAY = "[" * 100_000 + "]" * 100_000


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_interleaved_report(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--head-dim", "12")
        assert code == 0
        doc = json.loads(out)
        assert doc["axes"]["t"]["max_gap"] == 3
        assert all(doc["spans_ends"].values())

    def test_chunked_fails_span(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--head-dim", "24", "--scheme", "chunked")
        assert code == 0
        doc = json.loads(out)
        assert not all(doc["spans_ends"].values())

    def test_odd_head_dim_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--head-dim", "7")
        assert code == 2
        assert "config error" in err

    def test_config_file(self, capsys, tmp_path):
        """The printed allocation, fed back as --config, prints the same bytes."""
        path = tmp_path / "alloc.json"
        for cfg in ({"head_dim": 24},
                    {"head_dim": 24, "scheme": "chunked", "chunk_split": [5, 4, 3], "base": 500}):
            path.write_text(json.dumps(cfg))
            code, out, _ = run_cli(capsys, "spectrum", "--config", str(path))
            assert code == 0
            allocation = json.loads(out)["allocation"]
            assert allocation == {"base": 10000.0, "scheme": "interleaved", **cfg}
            path.write_text(json.dumps(allocation))
            code, again, _ = run_cli(capsys, "spectrum", "--config", str(path))
            assert code == 0 and again == out

    def test_chunk_with_no_pairs(self, capsys, tmp_path):
        """An axis a chunked split gives no pair reports count 0, indices -1
        and no span of the spectrum's ends."""
        path = tmp_path / "alloc.json"
        path.write_text(json.dumps({"head_dim": 8, "scheme": "chunked",
                                    "chunk_split": [4, 0, 0]}))
        code, out, _ = run_cli(capsys, "spectrum", "--config", str(path))
        assert code == 0
        empty = {"count": 0, "min_index": -1, "max_index": -1, "max_gap": 0}
        assert json.loads(out) == {
            "allocation": {"base": 10000.0, "chunk_split": [4, 0, 0], "head_dim": 8,
                           "scheme": "chunked"},
            "axes": {"t": {"count": 4, "min_index": 0, "max_index": 3, "max_gap": 1},
                     "h": empty, "w": empty},
            "spans_ends": {"t": True, "h": False, "w": False}}

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--config", "/nonexistent.json")
        assert code == 2


class TestSparsity:
    def test_two_hour_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "sparsity", "--duration", "7200",
                               "--spacing", "2", "--granularity", "0.1")
        assert code == 0
        doc = json.loads(out)
        assert doc["textual_timestamp"]["sparsity"] == 1.0
        assert abs(doc["absolute_time"]["sparsity"] - 20.0) < 0.01
        assert doc["absolute_time"]["max_t"] == 71980

    def test_bad_duration(self, capsys):
        code, _, err = run_cli(capsys, "sparsity", "--duration", "-5")
        assert code == 2

    def test_group_cap_is_inclusive(self, capsys, monkeypatch):
        monkeypatch.setattr(timeline, "MAX_GROUPS", 10)
        code, out, _ = run_cli(capsys, "sparsity", "--duration", "10.5", "--spacing", "1")
        assert code == 0 and json.loads(out)["groups"] == 10
        code, _, err = run_cli(capsys, "sparsity", "--duration", "11", "--spacing", "1")
        assert code == 2 and "more than the 10 allowed" in err


class TestGround:
    def test_valid_point_file(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('[{"point_2d": [10, 20], "label": "a"}]')
        code, out, _ = run_cli(capsys, "ground", "--kind", "point", "--input", str(path))
        assert code == 0
        assert out.strip() == '[{"point_2d": [10, 20], "label": "a"}]'

    def test_invalid_payload_exit_3(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('[{"point_2d": [10], "label": "a"}]')
        code, _, err = run_cli(capsys, "ground", "--kind", "point", "--input", str(path))
        assert code == 3
        assert "validation error" in err

    def test_count_kind(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('[{"count":3,"label":"cups"}]')
        code, out, _ = run_cli(capsys, "ground", "--kind", "count", "--input", str(path))
        assert code == 0
        assert out.strip() == '[{"count": 3, "label": "cups"}]'

    def test_non_finite_box3d_exit_3(self, capsys, tmp_path):
        path = tmp_path / "b.json"
        path.write_text('[{"bbox_3d": [0, 0, 0, 1, 1, NaN, 0, 0, 0], "label": "a"}]')
        code, out, err = run_cli(capsys, "ground", "--kind", "box3d", "--input", str(path))
        assert code == 3 and out == ""
        assert err.startswith("validation error: element 0: non-finite")

    @pytest.mark.parametrize("text", [
        '[{"point_2d": [1%s, 5], "label": "a"}]' % ("0" * 5000), DEEP_ARRAY,
    ], ids=["5001-digit-integer", "nested-100000-deep"])
    def test_undecodable_stdin_exit_3(self, capsys, monkeypatch, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "ground", "--kind", "point")
        assert code == 3 and out == ""
        assert err.startswith("validation error: malformed JSON") and err.count("\n") == 1

    @pytest.mark.parametrize("kind, text, message", [
        ("point", '[{"point_2d": [1, 2], "label": "\\ud800"}]', "label is not valid Unicode"),
        ("point", '[{"point_2d": [true, 2], "label": "a"}]', "non-numeric entry in 'point_2d'"),
        ("box2d", '[{"bbox_2d": [10, 0, 5, 10], "label": "a"}]', "box corners out of order"),
        ("box3d", '[{"bbox_3d": [0, 0, 0, 1, 1, -1, 0, 0, 0], "label": "a"}]',
         "3D box sizes must be non-negative"),
        ("count", '[{"count": -1, "label": "a"}]', "count must be a non-negative integer"),
    ], ids=["lone-surrogate-label", "bool-coordinate", "corners-out-of-order",
            "negative-3d-size", "negative-count"])
    def test_bad_document_exits_3_with_one_line(self, capsys, tmp_path, kind, text, message):
        path = tmp_path / "doc.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "ground", "--kind", kind, "--input", str(path))
        assert code == 3 and out == ""
        assert err.startswith(f"validation error: element 0: {message}")
        assert err.count("\n") == 1

    def test_missing_input_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "ground", "--kind", "box2d", "--input", "/nope.json")
        assert code == 2


class TestTrain:
    def test_s0_run_writes_curve(self, capsys, tmp_path):
        out_path = tmp_path / "curve.json"
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({
            "stage": "S0", "steps": 3, "lr": 0.2, "examples": 2, "text_len": 5,
            "model": {"encoder_depth": 3, "decoder_depth": 3, "dim": 4,
                      "llm_dim": 8, "head_dim": 4, "taps": [0, 1, 2],
                      "inject_layers": [0, 1, 2], "vocab": 32},
        }))
        code, out, _ = run_cli(capsys, "train", "--config", str(cfg),
                               "--seed", "0", "--out", str(out_path))
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["stage"] == "S0"
        assert doc["trainable"] == ["merger"]
        assert len(doc["losses"]) == 3

    def test_unknown_stage_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "train", "--stage", "S7")
        assert code == 2
        assert "S0, S1, S2, S3" in err


class TestNiah:
    def test_small_grid_reports(self, capsys, tmp_path):
        cfg = tmp_path / "niah.json"
        cfg.write_text(json.dumps({"durations_min": [0.2, 0.5],
                                   "needle_depths": [0.25, 0.75],
                                   "trials": 2, "num_frames": 64}))
        code, out, _ = run_cli(capsys, "niah", "--config", str(cfg),
                               "--seed", "1", "--out", str(tmp_path / "reports"))
        assert code == 0
        assert "minimum cell accuracy 1.000" in out
        report = json.loads((tmp_path / "reports" / "niah.json").read_text())
        assert len(report["cells"]) == 4
        csv_lines = (tmp_path / "reports" / "niah.csv").read_text().splitlines()
        assert len(csv_lines) == 5

    def test_unknown_key_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "niah.json"
        cfg.write_text(json.dumps({"frames": 10}))
        code, _, err = run_cli(capsys, "niah", "--config", str(cfg))
        assert code == 2
        assert "unknown niah config keys" in err

    def test_identical_seeds_identical_bytes(self, capsys, tmp_path):
        cfg = tmp_path / "niah.json"
        cfg.write_text(json.dumps({"durations_min": [0.2], "needle_depths": [0.5],
                                   "trials": 1, "num_frames": 16}))
        outs = []
        for sub in ("a", "b"):
            code, _, _ = run_cli(capsys, "niah", "--config", str(cfg),
                                 "--seed", "5", "--out", str(tmp_path / sub))
            assert code == 0
            outs.append(((tmp_path / sub / "niah.json").read_bytes(),
                         (tmp_path / sub / "niah.csv").read_bytes()))
        assert outs[0] == outs[1]


# A one-cell niah grid, so the bad --out cases reach the report writer quickly.
TINY_NIAH = {"num_frames": 4, "needle_depths": [0.5], "trials": 1, "durations_min": [0.1]}


@pytest.mark.parametrize("argv, config", [
    (["train", "--lr", "nan", "--steps", "1"], None),
    (["train", "--steps", "1"], {"scheme": "bogus", "examples": 1, "text_len": 2}),
    (["sparsity", "--duration", "10", "--granularity", "nan"], None),
    (["ground", "--kind", "point", "--input", "."], None),
    (["train"], {"lr": "fast"}),
    (["sparsity"], {"granularity_s": "x"}),
    (["spectrum"], {"head_dim": "x"}),
    (["niah"], {"trials": "3"}),
    (["train"], {"model": {"dim": "x"}}),
    (["train"], {"stepz": 3}),
    (["spectrum"], {"bogus": 1}),
    (["niah"], {"signature_noise": float("nan")}),
    (["niah"], {"durations_min": [float("inf")]}),
    (["niah"], '{"durations_min": [1e400]}'),
    (["niah"], {"durations_min": [1e307]}),
    (["niah"], '{"signature_noise": 1%s}' % ("0" * 400)),
    (["train"], {"model": {"rope_base": float("nan")}}),
    (["train"], {"model": {"normalize_taps": True}}),
    (["spectrum", "--base", "nan"], None),
    (["spectrum", "--base", "inf"], None),
    (["train", "--stage", "cfg.json"], "{bad"),
    (["train", "--stage", "cfg.json"], "[1]"),
    (["train", "--stage", "cfg.json"], {"name": "S0", "sequence_length": "x"}),
    (["train", "--stage", "cfg.json"], {"name": "S0", "trainable": "merger"}),
    (["train", "--stage", "cfg.json"], {"name": "S2", "token_budget": 123}),
    (["train", "--stage", "cfg.json"], {"name": "S2", "bogus": 1}),
    (["spectrum", "--config", "."], None),
    (["sparsity", "--duration", "1e300", "--spacing", "1e-300"], None),
    (["sparsity", "--duration", "1e6", "--spacing", "1e-3"], None),
    (["sparsity", "--duration", "1e300", "--spacing", "1e296", "--granularity", "1e-10"], None),
    (["niah"], {"num_frames": 100_001, "durations_min": [0.01], "trials": 1}),
    (["niah", "--out", "cfg.json/reports"], TINY_NIAH),
    (["niah", "--out", "cfg.json"], TINY_NIAH),
    (["train", "--steps", "1", "--out", "."], {"examples": 1, "text_len": 2}),
    (["niah"], {"schema_version": 2}),
    (["train", "--stage", "cfg.json"], {"schema_version": 2, "name": "S1"}),
    (["train"], {"model": {"schema_version": 2}}),
    (["train", "--lr", "1e308", "--steps", "3"], None),
    (["niah", "--seed", "-1"], TINY_NIAH),
    (["train", "--seed", "-1", "--steps", "1"], None),
    (["spectrum"], '{"head_dim": 1%s}' % ("0" * 5000)),
    (["spectrum"], '{"head_dim": %s}' % DEEP_ARRAY),
    (["train", "--stage", "cfg.json"], '{"sequence_length": 1%s}' % ("0" * 5000)),
    (["train", "--stage", "cfg.json"], '{"trainable": %s}' % DEEP_ARRAY),
    (["train", "--stage", "cfg.json"], {"name": "S1", "sequence_length": 4}),
    (["sparsity", "--duration", "1e20", "--spacing", "1e16"], None),
    (["niah"], {**TINY_NIAH, "durations_min": [1e12]}),
    (["niah"], {**TINY_NIAH, "needle_depths": []}),
    (["niah"], {**TINY_NIAH, "durations_min": []}),
    (["train"], {"examples": 0}),
    (["sparsity", "--duration", "1", "--spacing", "2"], None),
    (["ground"], None),
    (["spectrum"], {"scheme": "interleaved", "chunk_split": [2, 1, 1]}),
    (["niah"], {"signature_dim": 3}),
    (["niah"], {"overlap": 1.5}),
    (["niah"], {"signature_noise": -0.1}),
    (["train"], {"steps": -1}),
    (["train"], {"model": {"dim": 0}}),
    (["train"], {"model": {"inject_layers": [0, 1]}}),
    (["train", "--stage", "cfg.json"], {"name": "S1", "trainable": ["vision"]}),
    (["train", "--stage", "cfg.json"], {"name": "S9"}),
], ids=["train-lr-nan", "train-bogus-scheme", "sparsity-granularity-nan", "ground-directory",
        "train-lr-string", "sparsity-granularity-string", "spectrum-head-dim-string",
        "niah-trials-string", "train-model-dim-string", "train-unknown-key",
        "spectrum-unknown-key", "niah-noise-nan", "niah-duration-infinity",
        "niah-duration-1e400", "niah-duration-overflows-in-seconds", "niah-noise-huge-integer",
        "train-rope-base-nan",
        "train-model-removed-key",
        "spectrum-base-nan", "spectrum-base-inf",
        "stage-not-json", "stage-array", "stage-length-string", "stage-trainable-string",
        "stage-token-budget", "stage-unknown-key", "spectrum-config-directory",
        "sparsity-overflowing-groups", "sparsity-too-many-groups",
        "sparsity-overflowing-absolute-ids", "niah-too-many-frames", "niah-out-under-a-file",
        "niah-out-is-a-file",
        "train-out-is-a-directory", "niah-schema-version-2", "stage-schema-version-2",
        "train-model-schema-version-2",
        "train-divergent-lr", "niah-negative-seed", "train-negative-seed",
        "spectrum-5001-digit-integer", "spectrum-nested-100000-deep",
        "stage-5001-digit-integer", "stage-nested-100000-deep",
        "stage-sequence-length-below-the-examples", "sparsity-stamps-above-2**45-s",
        "niah-stamps-above-2**45-s", "niah-no-depths", "niah-no-durations",
        "train-zero-examples", "sparsity-shorter-than-one-group", "ground-no-kind",
        "spectrum-interleaved-chunk-split", "niah-odd-signature-dim", "niah-overlap-above-1",
        "niah-negative-noise", "train-negative-steps", "train-model-zero-dim",
        "train-model-two-inject-layers", "stage-unknown-component", "stage-unknown-name"])
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, monkeypatch, argv, config):
    monkeypatch.chdir(tmp_path)
    assert_exits_2_with_one_line(capsys, tmp_path, argv, config)


def assert_exits_2_with_one_line(capsys, tmp_path, argv, config):
    """Run ``argv`` in ``tmp_path``, the working directory, with ``config`` as its
    config file, and check that it exits 2 with one line and writes no report."""
    if config is not None:
        # A string is written verbatim: JSON text that json.dumps would not produce.
        text = config if isinstance(config, str) else json.dumps(config)
        (tmp_path / "cfg.json").write_text(text)
        if "cfg.json" not in argv:
            argv = [*argv, "--config", "cfg.json"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("config error: ") and err.count("\n") == 1
    if "--out" in argv:
        assert err.startswith("config error: cannot write")
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("cls", [ModelConfig, NiahConfig, StageConfig, SamplingPolicy, PatchGrid],
                         ids=lambda cls: cls.__name__)
def test_field_types_name_every_init_field(cls):
    """A field cannot be added without a declared type: the table its constructor
    and its JSON loader check holds each init field, plus ``schema_version`` where
    the config has a JSON form."""
    json_form = {"schema_version"} if cls in (ModelConfig, NiahConfig, StageConfig) else set()
    assert set(cls.FIELD_TYPES) == {f.name for f in fields(cls) if f.init} | json_form


@pytest.mark.parametrize("make, match, argv, config", [
    (lambda: ModelConfig(rope_base="x"), "rope_base must be a finite number",
     ["train"], {"model": {"rope_base": "x"}}),
    (lambda: ModelConfig(inject_after_layer=1), "inject_after_layer must be a boolean",
     ["train"], {"model": {"inject_after_layer": 1}}),
    (lambda: StageConfig("S1", 1.5, {"decoder"}), "sequence_length must be an integer",
     ["train", "--stage", "cfg.json"], {"name": "S1", "sequence_length": 1.5}),
    (lambda: StageConfig("S1", 100, "decoder"), "trainable must hold strings",
     ["train", "--stage", "cfg.json"], {"name": "S1", "trainable": "decoder"}),
    (lambda: SamplingPolicy(fps=True), "fps must be a finite number", None, None),
    (lambda: SamplingPolicy(fps="1"), "fps must be a finite number", None, None),
    (lambda: NiahConfig(timestamp_style=3), "timestamp_style must be a string",
     ["niah"], {**TINY_NIAH, "timestamp_style": 3}),
], ids=["model-rope-base-string", "model-inject-after-layer-int", "stage-length-float",
        "stage-trainable-string", "policy-fps-bool", "policy-fps-string",
        "niah-timestamp-style-int"])
def test_wrong_field_types_raise_config_error(capsys, tmp_path, monkeypatch, make, match, argv,
                                              config):
    """Each field's type is checked at construction, as at JSON load: a wrong one
    is a ConfigError, never a TypeError nor an accepted config."""
    with pytest.raises(ConfigError, match=match):
        make()
    if argv is not None:
        monkeypatch.chdir(tmp_path)
        assert_exits_2_with_one_line(capsys, tmp_path, argv, config)


def test_stage_file_naming_a_token_budget_exits_2(capsys, tmp_path):
    """A stage carries no token budget, so an older stage file naming one is
    refused like any unknown key, not read and ignored."""
    stage = tmp_path / "stage.json"
    stage.write_text(json.dumps({"name": "S2", "token_budget": 123}), encoding="utf-8")
    code, out, err = run_cli(capsys, "train", "--stage", str(stage), "--steps", "1")
    assert (code, out) == (2, "")
    assert err == "config error: unknown stage config keys: ['token_budget']\n"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_two_calls_build_one_parser(capsys, monkeypatch):
    """The argparse tree is built on a process's first ``main`` call, not
    on import, and every later call parses with it."""
    cli._parser.cache_clear()
    built = mock.Mock(wraps=cli.build_parser)
    monkeypatch.setattr(cli, "build_parser", built)
    argv = ["sparsity", "--duration", "100", "--spacing", "1"]
    first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
    assert built.call_count == 1
    assert first == second and first[0] == 0


@pytest.mark.parametrize("argv", [["--help"], ["train", "--help"], ["--version"], [],
                                  ["nope"], ["train", "--steps", "x"], ["niah", "--bogus"]],
                         ids=["help", "train-help", "version", "no-command", "bad-command",
                              "bad-value", "bad-flag"])
def test_kept_parser_prints_what_a_new_one_prints(capsys, argv):
    """Help, the version and argparse's exit-2 errors from the kept parser,
    used before, are byte for byte those of a newly built one."""
    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        return exc.value.code, capsys.readouterr()

    main(["sparsity", "--duration", "100", "--spacing", "1"])
    capsys.readouterr()
    kept = outcome(main)
    assert kept == outcome(cli.build_parser().parse_args)
    assert kept[0] == (0 if "--help" in argv or "--version" in argv else 2)


def test_closed_stdout_exits_1_without_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(vlmlab.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "vlmlab.cli", "sparsity", "--duration", "100", "--spacing", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before the child writes
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err
