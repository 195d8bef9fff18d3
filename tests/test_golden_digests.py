"""Identity check: sha256 of ``steps.csv`` and ``summary.json`` for every
scheme on a short plan.

Runs the reference scenario for 30/120/30 explore/train/eval steps under
seeds 0 and 1, for all six schemes, and compares each ``steps.csv`` with a
digest recorded before the batched learner replaced the per-agent one, and
each ``summary.json`` with a digest recorded before the runner kept its
per-step values in arrays. The two heuristic schemes and the two per-cell
learners also run on a 12-cell grid (cells of two, three and four
neighbours, where every ring cell has two, so ``dist_comm``'s neighbour
message averages over all three degrees); their keys start with
``grid12/``. The heuristics' digests were recorded before the environment
step was vectorised, the learners' before the observations and rewards
became whole-array functions. The summary digest covers
the summary's values without ``runtime_s`` (wall clock) and the two file
paths, serialized as canonical JSON. Digests depend on numpy's floating-point kernels, so they
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
GRID_KINDS = ("baseline", "static_default", "dist", "dist_comm")
GRID = "grid12/"
# summary fields that name paths or hold wall-clock time
UNSTABLE_SUMMARY_KEYS = ("runtime_s", "steps_csv", "checkpoint")


def short_config(prefix: str = ""):
    """The reference config on the short plan; with ``GRID``, on a 12-cell
    grid with two users per cell and slice, as on the ring."""
    data = json.loads((ROOT / "configs" / "reference.json").read_text())
    data["phases"] = dict(PHASES)
    if prefix == GRID:
        data["scenario"].update(topology="grid", cells=12, coupling=0.15)
        for s in data["scenario"]["slices"]:
            s["group_size_max"] = 24
    return parse_config(data)


def run_digests(cfg, kind: str, seed: int, out: Path, prefix: str = "") -> dict:
    """Digests of one run, keyed as in ``golden_digests.json``."""
    run_single(cfg, kind, seed, out)
    summary = json.loads((out / "summary.json").read_text())
    for key in UNSTABLE_SUMMARY_KEYS:
        del summary[key]
    canonical = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return {
        f"{prefix}{kind}/seed{seed}": hashlib.sha256((out / "steps.csv").read_bytes()).hexdigest(),
        f"{prefix}{kind}/seed{seed}/summary.json": hashlib.sha256(canonical.encode()).hexdigest(),
    }


def recorded() -> dict:
    return json.loads(DIGESTS_PATH.read_text()).get(np.__version__, {})


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Digests of each scheme's runs, computed once per module."""
    cache = {}

    def get(kind: str, prefix: str = "") -> dict:
        if (prefix, kind) not in cache:
            cfg = short_config(prefix)
            got = cache[prefix, kind] = {}
            for seed in SEEDS:
                out = tmp_path_factory.mktemp(f"{prefix.rstrip('/')}{kind}-seed{seed}")
                got.update(run_digests(cfg, kind, seed, out, prefix))
        return cache[prefix, kind]

    return get


def check(runs, kind: str, prefix: str, suffix: str) -> None:
    """Compare the digests of ``kind``'s runs whose keys end in ``suffix``."""
    digests = recorded()
    if not digests:
        pytest.skip(f"no golden digests recorded for numpy {np.__version__}")
    got = runs(kind, prefix)
    for seed in SEEDS:
        key = f"{prefix}{kind}/seed{seed}{suffix}"
        name = suffix.lstrip("/") or "steps.csv"
        assert got[key] == digests[key], f"{prefix}{kind} seed {seed}: {name} changed"


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_steps_csv_matches_golden_digest(kind, runs):
    check(runs, kind, "", "")


@pytest.mark.parametrize("kind", SCHEME_KINDS)
def test_summary_json_matches_golden_digest(kind, runs):
    check(runs, kind, "", "/summary.json")


@pytest.mark.parametrize("kind", GRID_KINDS)
def test_grid_steps_csv_matches_golden_digest(kind, runs):
    check(runs, kind, GRID, "")


@pytest.mark.parametrize("kind", GRID_KINDS)
def test_grid_summary_json_matches_golden_digest(kind, runs):
    check(runs, kind, GRID, "/summary.json")


def record(tmp: Path) -> None:
    all_digests = json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    version = {}
    for prefix, kinds in (("", SCHEME_KINDS), (GRID, GRID_KINDS)):
        cfg = short_config(prefix)
        for kind in kinds:
            for seed in SEEDS:
                out = tmp / f"{prefix}{kind}" / f"seed{seed}"
                version.update(run_digests(cfg, kind, seed, out, prefix))
    all_digests[np.__version__] = version
    DIGESTS_PATH.write_text(json.dumps(all_digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_digests.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
