"""Identity check: sha256 of ``steps.csv`` and ``summary.json`` for every
scheme on a short plan.

Runs the reference scenario for 30/120/30 explore/train/eval steps under
seeds 0 and 1, for all six schemes, and compares each ``steps.csv`` with a
digest recorded before the batched learner replaced the per-agent one, and
each ``summary.json`` with a digest recorded before the runner kept its
per-step values in arrays. The summary digest covers the summary's values
without ``runtime_s`` (wall clock) and the two file paths, serialized as
canonical JSON. Digests depend on numpy's floating-point kernels, so they
are keyed by numpy version; with no entry for the running numpy the tests
skip and say so.

To record both kinds of digest for another numpy version after checking
that behaviour is unchanged by other means (the acceptance suite)::

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
# summary fields that name paths or hold wall-clock time
UNSTABLE_SUMMARY_KEYS = ("runtime_s", "steps_csv", "checkpoint")


def short_config():
    data = json.loads((ROOT / "configs" / "reference.json").read_text())
    data["phases"] = dict(PHASES)
    return parse_config(data)


def run_digests(cfg, kind: str, seed: int, out: Path) -> dict:
    """Digests of one run, keyed as in ``golden_digests.json``."""
    run_single(cfg, kind, seed, out)
    summary = json.loads((out / "summary.json").read_text())
    for key in UNSTABLE_SUMMARY_KEYS:
        del summary[key]
    canonical = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return {
        f"{kind}/seed{seed}": hashlib.sha256((out / "steps.csv").read_bytes()).hexdigest(),
        f"{kind}/seed{seed}/summary.json": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def recorded() -> dict:
    return json.loads(DIGESTS_PATH.read_text()).get(np.__version__, {})


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Digests of each scheme's runs, computed once per module."""
    cache = {}

    def get(kind: str) -> dict:
        if kind not in cache:
            cfg = short_config()
            cache[kind] = {}
            for seed in SEEDS:
                out = tmp_path_factory.mktemp(f"{kind}-seed{seed}")
                cache[kind].update(run_digests(cfg, kind, seed, out))
        return cache[kind]

    return get


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_steps_csv_matches_golden_digest(kind, runs):
    digests = recorded()
    if not digests:
        pytest.skip(f"no golden digests recorded for numpy {np.__version__}")
    got = runs(kind)
    for seed in SEEDS:
        key = f"{kind}/seed{seed}"
        assert got[key] == digests[key], f"{kind} seed {seed}: steps.csv changed"


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_summary_json_matches_golden_digest(kind, runs):
    digests = recorded()
    if not digests:
        pytest.skip(f"no golden digests recorded for numpy {np.__version__}")
    got = runs(kind)
    for seed in SEEDS:
        key = f"{kind}/seed{seed}/summary.json"
        assert got[key] == digests[key], f"{kind} seed {seed}: summary.json changed"


def record(tmp: Path) -> None:
    cfg = short_config()
    all_digests = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    version = {}
    for kind in SCHEME_KINDS:
        for seed in SEEDS:
            version.update(run_digests(cfg, kind, seed, tmp / kind / f"seed{seed}"))
    all_digests[np.__version__] = version
    DIGESTS_PATH.write_text(json.dumps(all_digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_digests.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
