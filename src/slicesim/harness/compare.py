"""Multi-run comparison: median-over-seeds tables and smoothed reward curves."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .metrics import smooth

TABLE_METRICS = (
    ("mean_eval_reward", "eval_reward"),
    ("mean_eval_eta", "eval_eta"),
    ("penalty_mean_last_1000_train", "penalty_tail"),
    ("steps_to_90pct_train_reward", "steps_to_90pct"),
    ("mask_correlation_s1", "mask_corr_s1"),
)


def load_summary(path) -> dict:
    """Read a summary.json; a run directory is accepted as shorthand.

    The loaded summary names the ``steps.csv`` beside the file, not the
    absolute path the run wrote, so a run directory can be moved."""
    p = Path(path)
    if p.is_dir():
        p = p / "summary.json"
    with open(p) as fh:
        summary = json.load(fh)
    summary["steps_csv"] = str(p.parent / "steps.csv")
    return summary


def _median(values) -> float | None:
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    return float(np.median(vals))


def by_scheme(summaries) -> dict[str, list[dict]]:
    """The summaries grouped per scheme, in scheme-name order."""
    groups: dict[str, list[dict]] = {}
    for s in summaries:
        groups.setdefault(s["scheme"], []).append(s)
    return dict(sorted(groups.items()))


def compare_runs(summaries) -> dict:
    """Aggregate loaded run summaries per scheme; refuses mixed scenarios or
    phase plans."""
    if not summaries:
        raise ValueError("need at least one summary")
    hashes = {s["scenario_hash"] for s in summaries}
    if len(hashes) > 1:
        raise ValueError(f"summaries span different scenarios: {sorted(hashes)}")
    plans = {json.dumps(s["phases"], sort_keys=True) for s in summaries}
    if len(plans) > 1:
        raise ValueError(f"summaries span different phase plans: {sorted(plans)}")

    schemes = {}
    for kind, group in by_scheme(summaries).items():
        row = {"seeds": sorted(s["seed"] for s in group), "runs": len(group)}
        for key, label in TABLE_METRICS:
            row[label] = _median([s.get(key) for s in group])
        schemes[kind] = row

    ranking = sorted(schemes,
                     key=lambda k: (schemes[k]["eval_reward"] is None,
                                    -(schemes[k]["eval_reward"] or 0.0)))
    return {"scenario_hash": hashes.pop(), "schemes": schemes, "ranking": ranking}


def format_table(result: dict) -> str:
    """Plain-text table, one row per scheme, ordered by median eval reward."""
    labels = [label for _, label in TABLE_METRICS]
    header = ["scheme", "runs"] + labels
    rows = [header]
    for kind in result["ranking"]:
        row = result["schemes"][kind]
        cells = [kind, str(row["runs"])]
        for label in labels:
            v = row[label]
            cells.append("-" if v is None else f"{v:.4f}")
        rows.append(cells)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    lines.append(f"scenario {result['scenario_hash']}")
    return "\n".join(lines)


def read_column(csv_path, column: str) -> np.ndarray:
    """One float column out of a per-step CSV."""
    out = []
    with open(csv_path, newline="") as fh:
        reader = csv.DictReader(fh)
        if column not in (reader.fieldnames or ()):
            raise KeyError(f"{csv_path} has no column {column!r}")
        for row in reader:
            out.append(float(row[column]))
    return np.array(out)


def mean_curve(summaries, column: str = "reward_raw", window: int = 100,
               stride: int = 50) -> dict:
    """Smoothed per-step curve averaged over loaded run summaries,
    downsampled for plotting."""
    traces = [smooth(read_column(s["steps_csv"], column), window=window) for s in summaries]
    length = min(len(t) for t in traces)
    mean = np.mean([t[:length] for t in traces], axis=0)
    idx = np.arange(0, length, max(1, int(stride)))
    return {"column": column, "window": window,
            "steps": idx.tolist(), "values": mean[idx].tolist()}
