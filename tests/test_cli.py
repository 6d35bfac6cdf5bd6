import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vlmlab
from vlmlab import cli, timeline
from vlmlab.cli import main


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
    (["train", "--stage", "cfg.json"], {"name": "S2", "token_budget": 1.5}),
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
], ids=["train-lr-nan", "train-bogus-scheme", "sparsity-granularity-nan", "ground-directory",
        "train-lr-string", "sparsity-granularity-string", "spectrum-head-dim-string",
        "niah-trials-string", "train-model-dim-string", "train-unknown-key",
        "spectrum-unknown-key", "niah-noise-nan", "niah-duration-infinity",
        "niah-duration-1e400", "niah-duration-overflows-in-seconds", "niah-noise-huge-integer",
        "train-rope-base-nan",
        "train-model-removed-key",
        "spectrum-base-nan", "spectrum-base-inf",
        "stage-not-json", "stage-array", "stage-length-string", "stage-trainable-string",
        "stage-budget-float", "stage-unknown-key", "spectrum-config-directory",
        "sparsity-overflowing-groups", "sparsity-too-many-groups",
        "sparsity-overflowing-absolute-ids", "niah-too-many-frames", "niah-out-under-a-file",
        "niah-out-is-a-file",
        "train-out-is-a-directory", "niah-schema-version-2", "stage-schema-version-2",
        "train-model-schema-version-2",
        "train-divergent-lr", "niah-negative-seed", "train-negative-seed",
        "spectrum-5001-digit-integer", "spectrum-nested-100000-deep",
        "stage-5001-digit-integer", "stage-nested-100000-deep",
        "stage-sequence-length-below-the-examples", "sparsity-stamps-above-2**45-s",
        "niah-stamps-above-2**45-s"])
def test_bad_input_exits_2_with_one_line(capsys, tmp_path, monkeypatch, argv, config):
    monkeypatch.chdir(tmp_path)
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_closed_stdout_exits_1_without_traceback():
    env = {**os.environ, "PYTHONPATH": str(Path(vlmlab.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "vlmlab.cli", "sparsity", "--duration", "100", "--spacing", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()  # the reader is gone before the child writes
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err
