"""Byte-stable JSON and CSV reports for probe grids."""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

SCHEMA_VERSION = 1

# Fixed provenance stub so identical inputs yield identical bytes.
METADATA_STUB = {
    "generator": "vlmlab",
    "revision": "0000000",
    "schema": "niah-grid",
    "method": ("attention-score retrieval probe over rotary-encoded frame-group "
               "keys; no language model is run"),
}


def _validate_grid(durations, depths, accuracies, trials):
    if not durations or not depths:
        raise ValueError("report grid must be non-empty")
    if len(accuracies) != len(durations):
        raise ValueError(f"{len(accuracies)} rows for {len(durations)} durations")
    for row in accuracies:
        if len(row) != len(depths):
            raise ValueError("report grid must be rectangular")
    if trials < 1:
        raise ValueError("trials must be at least 1")


def render_csv(durations, depths, accuracies) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["duration", "depth", "accuracy"])
    for duration, row in zip(durations, accuracies):
        for depth, acc in zip(depths, row):
            writer.writerow([float(duration), float(depth), float(acc)])
    return buf.getvalue()


def render_json(durations, depths, accuracies, trials, config: dict | None = None) -> str:
    cells = [
        {"duration": float(duration), "depth": float(depth),
         "accuracy": float(acc), "trials": trials}
        for duration, row in zip(durations, accuracies)
        for depth, acc in zip(depths, row)
    ]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "metadata": METADATA_STUB,
        "config": config or {},
        "durations": [float(d) for d in durations],
        "depths": [float(d) for d in depths],
        "cells": cells,
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def emit_report(durations, depths, accuracies, trials, out_dir: str | Path,
                config: dict | None = None) -> tuple[Path, Path]:
    """Write the grid as niah.json and niah.csv under ``out_dir``."""
    _validate_grid(durations, depths, accuracies, trials)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    json_path = out / "niah.json"
    csv_path = out / "niah.csv"
    json_path.write_text(render_json(durations, depths, accuracies, trials, config),
                         encoding="utf-8")
    csv_path.write_text(render_csv(durations, depths, accuracies), encoding="utf-8")
    return json_path, csv_path


def load_report(json_path: str | Path) -> dict:
    """Parse an emitted JSON report back into the in-memory grid."""
    doc = json.loads(Path(json_path).read_text(encoding="utf-8"))
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema {doc.get('schema_version')}")
    durations = doc["durations"]
    depths = doc["depths"]
    by_cell = {(c["duration"], c["depth"]): c["accuracy"] for c in doc["cells"]}
    accuracies = [[by_cell[(du, de)] for de in depths] for du in durations]
    trials = doc["cells"][0]["trials"] if doc["cells"] else 0
    return {
        "durations_min": durations,
        "depths": depths,
        "accuracies": accuracies,
        "trials": trials,
        "config": doc.get("config", {}),
    }
