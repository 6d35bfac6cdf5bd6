"""Byte-stable JSON and CSV reports of a NIAH grid: everything but the accuracies comes
from the grid's :class:`NiahConfig`."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .niah import NiahConfig

SCHEMA_VERSION = 1

# Fixed provenance stub so identical inputs yield identical bytes.
METADATA_STUB = {
    "generator": "vlmlab",
    "revision": "0000000",
    "schema": "niah-grid",
    "method": ("attention-score retrieval probe over rotary-encoded frame-group "
               "keys; no language model is run"),
}


def render_csv(cfg: NiahConfig, accuracies) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["duration", "depth", "accuracy"])
    for duration, row in zip(cfg.durations_min, accuracies):
        for depth, acc in zip(cfg.needle_depths, row):
            writer.writerow([duration, depth, float(acc)])
    return buf.getvalue()


def render_json(cfg: NiahConfig, accuracies) -> str:
    cells = [
        {"duration": duration, "depth": depth, "accuracy": float(acc), "trials": cfg.trials}
        for duration, row in zip(cfg.durations_min, accuracies)
        for depth, acc in zip(cfg.needle_depths, row)
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "metadata": METADATA_STUB,
        "config": cfg.to_dict(),
        "durations": list(cfg.durations_min),
        "depths": list(cfg.needle_depths),
        "cells": cells,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def emit_report(cfg: NiahConfig, accuracies, out_dir: str | Path) -> tuple[Path, Path]:
    """Write the grid of ``cfg`` with its accuracy table, one row per duration and one
    column per depth, as niah.json and niah.csv under ``out_dir``."""
    if [len(row) for row in accuracies] != [len(cfg.needle_depths)] * len(cfg.durations_min):
        raise ValueError("report grid must be rectangular, one row per duration and one "
                         "column per depth")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "niah.json"
    csv_path = out / "niah.csv"
    json_path.write_text(render_json(cfg, accuracies), encoding="utf-8")
    csv_path.write_text(render_csv(cfg, accuracies), encoding="utf-8")
    return json_path, csv_path
