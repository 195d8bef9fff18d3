"""Set up one workload in a fresh process and report when each part finished.

Usage: setup_probe.py CONFIG KIND:SEED [KIND:SEED ...]

Imports slicesim, loads the config, then builds the scheme and the
environment of every listed run the way ``run_single`` does, up to the point
where the first ``SliceEnv.step`` would run. Prints one JSON line of
``time.monotonic`` stamps, which the parent compares with its spawn time.
"""

import os
import time

T_START = time.monotonic()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main(argv) -> None:
    import numpy as np
    from slicesim.harness.config import load_config
    from slicesim.netsim import SliceEnv
    from slicesim.schemes import build_scheme

    t_imported = time.monotonic()
    cfg = load_config(argv[0])
    t_config = time.monotonic()
    for run in argv[1:]:
        kind, seed = run.split(":")
        env_ss, ctl_ss = np.random.SeedSequence(int(seed)).spawn(2)
        env = SliceEnv(cfg.scenario, env_ss)
        build_scheme(kind, cfg.scenario, cfg.rewards, cfg.scaling, cfg.hyper,
                     np.random.default_rng(ctl_ss), cfg.phases.anneal_steps,
                     static_allocation=cfg.static_allocation)
        env.reset()
    t_ready = time.monotonic()
    print(json.dumps({"t_start": T_START, "t_imported": t_imported,
                      "t_config": t_config, "t_ready": t_ready}))


if __name__ == "__main__":
    main(sys.argv[1:])
