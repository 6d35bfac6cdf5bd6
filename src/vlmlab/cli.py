"""Command-line harness.

Subcommands:
  spectrum  - per-axis frequency occupancy of an allocation scheme
  sparsity  - temporal position-id density, textual vs absolute encoding
  ground    - parse/validate grounding JSON and echo its canonical form
  train     - toy staged training run on synthetic data
  niah      - needle-in-a-haystack probe grid with CSV/JSON reports

Exit codes: 0 success, 1 stdout closed before the output was written,
2 configuration error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

# Each subcommand imports the modules it runs, so building the parser loads
# neither numpy nor any module a subcommand does not use.
from . import __version__
from .errors import NUMBER, ConfigError, GroundingParseError, load_json_config

EXIT_OK = 0
EXIT_CLOSED_PIPE = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3

_SPECTRUM_KEYS = {"head_dim": int, "base": NUMBER, "scheme": str, "chunk_split": [int]}
_SPARSITY_KEYS = {"duration_s": NUMBER, "group_spacing_s": NUMBER, "granularity_s": NUMBER}
_GROUND_KEYS = {"kind": str, "input": str}
_TRAIN_KEYS = {"stage": str, "model": dict, "examples": int, "text_len": int, "steps": int,
               "lr": NUMBER, "scheme": str}


def _cmd_spectrum(args) -> int:
    from . import mrope

    cfg = load_json_config(args.config, _SPECTRUM_KEYS, "spectrum")
    base = cfg.get("base", args.base)
    alloc = mrope.build_frequency_allocation(
        head_dim=cfg.get("head_dim", args.head_dim),
        base=mrope.DEFAULT_BASE if base is None else base,
        scheme=cfg.get("scheme", args.scheme),
        chunk_split=cfg.get("chunk_split"),
    )
    report = mrope.spectrum_report(alloc)
    doc = {"allocation": alloc.to_config(), "axes": report,
           "spans_ends": {axis: mrope.spans_spectrum_ends(alloc, axis)
                          for axis in mrope.AXES}}
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_sparsity(args) -> int:
    import numpy as np

    from . import timeline

    cfg = load_json_config(args.config, _SPARSITY_KEYS, "sparsity")
    duration = cfg.get("duration_s", args.duration)
    spacing = cfg.get("group_spacing_s", args.spacing)
    granularity = cfg.get("granularity_s", args.granularity)
    if not all(math.isfinite(v) and v > 0 for v in (duration, spacing)):
        raise ConfigError("duration and spacing must be finite and positive")
    groups = duration // spacing
    if not groups >= 1:
        raise ConfigError("duration too short for one group")
    if not groups <= timeline.MAX_GROUPS:
        raise ConfigError(f"duration / spacing gives {groups:.6g} groups, "
                          f"more than the {timeline.MAX_GROUPS} allowed")
    seq = timeline.interleave_timestamps(np.arange(int(groups)) * spacing, group_size=1)
    doc = {
        "groups": int(groups),
        "textual_timestamp": timeline.position_id_range_report(seq, "textual_timestamp"),
        "absolute_time": timeline.position_id_range_report(seq, "absolute_time",
                                                           granularity=granularity),
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_ground(args) -> int:
    from .grounding import parse_grounding_json, serialize_grounding_json

    cfg = load_json_config(args.config, _GROUND_KEYS, "ground")
    kind = cfg.get("kind", args.kind)
    source = cfg.get("input", args.input)
    if kind is None:
        raise ConfigError("ground needs --kind or a config with a 'kind' key")
    if source == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(source).read_text(encoding="utf-8")
        except FileNotFoundError:
            raise ConfigError(f"input file not found: {source}") from None
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read input {source}: {exc}") from None
    records = parse_grounding_json(text, kind)
    print(serialize_grounding_json(records))
    return EXIT_OK


def _cmd_train(args) -> int:
    from .harness.stages import load_stage_config
    from .harness.training import make_synthetic_batch, train_toy
    from .seeding import Rng
    from .vision import ModelConfig, VisionLanguageModel

    cfg = load_json_config(args.config, _TRAIN_KEYS, "train")
    stage = load_stage_config(cfg.get("stage", args.stage))
    model_cfg = ModelConfig.from_json(json.dumps(cfg["model"])) if "model" in cfg else ModelConfig()
    rng = Rng(args.seed)
    model = VisionLanguageModel(model_cfg, rng.split("model"))
    batch = make_synthetic_batch(model_cfg, rng.split("data"),
                                 n_examples=cfg.get("examples", 4),
                                 text_len=cfg.get("text_len", 8))
    result = train_toy(model, stage, batch,
                       steps=cfg.get("steps", args.steps),
                       lr=cfg.get("lr", args.lr),
                       scheme=cfg.get("scheme", "sqrt"))
    doc = {
        "schema_version": 1,
        "stage": stage.name,
        "trainable": sorted(stage.trainable),
        "losses": result.losses,
        "schemes_initial": result.per_scheme_initial,
        "schemes_final": result.per_scheme_final,
    }
    if args.out:
        try:
            Path(args.out).write_text(json.dumps(doc, indent=2, sort_keys=True), encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    print(json.dumps(doc, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_niah(args) -> int:
    from . import mrope
    from .harness.niah import NiahConfig, run_niah_grid
    from .harness.reports import emit_report

    cfg_dict = load_json_config(args.config, NiahConfig.FIELD_TYPES, "niah")
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    cfg = NiahConfig(**cfg_dict)
    alloc = mrope.build_frequency_allocation(cfg.signature_dim)
    accuracies = run_niah_grid(cfg, alloc)
    try:
        json_path, csv_path = emit_report(cfg, accuracies, args.out)
    except OSError as exc:
        raise ConfigError(f"cannot write reports to {args.out}: {exc.strerror or exc}") from None
    worst = min(min(row) for row in accuracies)
    print(f"wrote {json_path} and {csv_path}; minimum cell accuracy {worst:.3f}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vlmlab", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"vlmlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="frequency allocation occupancy report")
    p.add_argument("--config", help="JSON file with head_dim/base/scheme/chunk_split")
    p.add_argument("--head-dim", dest="head_dim", type=int, default=24)
    p.add_argument("--base", type=float)  # None: mrope.DEFAULT_BASE
    p.add_argument("--scheme", choices=["interleaved", "chunked"], default="interleaved")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("sparsity", help="temporal position-id density report")
    p.add_argument("--config", help="JSON file with duration_s/group_spacing_s/granularity_s")
    p.add_argument("--duration", type=float, default=7200.0, help="clip length in seconds")
    p.add_argument("--spacing", type=float, default=2.0, help="seconds between groups")
    p.add_argument("--granularity", type=float, default=0.1,
                   help="granularity of the absolute-time encoding")
    p.set_defaults(func=_cmd_sparsity)

    p = sub.add_parser("ground", help="validate grounding JSON, print canonical form")
    p.add_argument("--config", help="JSON file with kind/input keys")
    p.add_argument("--kind", choices=["box2d", "point", "box3d", "count"])
    p.add_argument("--input", default="-", help="path to a JSON file, or - for stdin")
    p.set_defaults(func=_cmd_ground)

    p = sub.add_parser("train", help="toy staged training on synthetic data")
    p.add_argument("--config", help="JSON file with stage/model/steps/lr/scheme/examples/text_len")
    p.add_argument("--stage", default="S0")
    p.add_argument("--steps", type=int, default=5)
    p.add_argument("--lr", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the loss curve JSON here")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("niah", help="needle-in-a-haystack probe grid")
    p.add_argument("--config", help="JSON file with NiahConfig fields")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default="reports", help="output directory for CSV/JSON")
    p.set_defaults(func=_cmd_niah)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use: parsing leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader went away (`vlmlab ... | head`); send what is left to
        # /dev/null so the flush at interpreter exit stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except GroundingParseError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
