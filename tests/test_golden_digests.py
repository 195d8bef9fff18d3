"""Byte-identity check: sha256 of ``steps.csv`` for every scheme on a short plan.

Runs the reference scenario for 30/120/30 explore/train/eval steps under
seeds 0 and 1, for all six schemes, and compares each ``steps.csv`` with a
digest recorded before the batched learner replaced the per-agent one.
Digests depend on numpy's floating-point kernels, so they are keyed by numpy
version; with no entry for the running numpy the test skips and says so.

To record digests for another numpy version after checking that behaviour
is unchanged by other means (the acceptance suite)::

    PYTHONPATH=src python tests/test_golden_digests.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from slicesim.harness.config import parse_config
from slicesim.harness.runner import run_single
from slicesim.schemes import SCHEME_KINDS

ROOT = Path(__file__).resolve().parent.parent
DIGESTS_PATH = Path(__file__).resolve().parent / "golden_digests.json"
PHASES = {"explore": 30, "train": 120, "eval": 30}
SEEDS = (0, 1)


def short_config():
    data = json.loads((ROOT / "configs" / "reference.json").read_text())
    data["phases"] = dict(PHASES)
    return parse_config(data)


def run_digest(cfg, kind: str, seed: int, out: Path) -> str:
    run_single(cfg, kind, seed, out)
    return hashlib.sha256((out / "steps.csv").read_bytes()).hexdigest()


def recorded() -> dict:
    return json.loads(DIGESTS_PATH.read_text()).get(np.__version__, {})


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_steps_csv_matches_golden_digest(kind, tmp_path):
    digests = recorded()
    if not digests:
        pytest.skip(f"no golden digests recorded for numpy {np.__version__}")
    cfg = short_config()
    for seed in SEEDS:
        got = run_digest(cfg, kind, seed, tmp_path / f"seed{seed}")
        assert got == digests[f"{kind}/seed{seed}"], f"{kind} seed {seed}: steps.csv changed"


def record(tmp: Path) -> None:
    cfg = short_config()
    all_digests = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    all_digests[np.__version__] = {
        f"{kind}/seed{seed}": run_digest(cfg, kind, seed, tmp / kind / f"seed{seed}")
        for kind in SCHEME_KINDS for seed in SEEDS}
    DIGESTS_PATH.write_text(json.dumps(all_digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_digests.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
