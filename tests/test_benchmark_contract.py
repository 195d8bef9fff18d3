"""What the benchmark in ``benchmarks/`` needs of the program, checked on short runs.

The benchmark reaches into the program by name: its tracer wraps public
functions and methods and requires each workload's spans to be entered, and
its set-up probe calls ``build_scheme`` positionally in a fresh process. A
refactor that renames or moves one of those breaks ``bench.py`` without
failing any other test. The benchmark files are only read here.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from slicesim.harness import config, runner
from slicesim.schemes import SCHEME_KINDS

BENCH_DIR = Path(__file__).parent.parent / "benchmarks"
SHORT_PHASES = {"explore": 40, "train": 40, "eval": 10}


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


workloads = _bench_module("workloads")
spans = _bench_module("spans")


def _short_config(path, workload, kinds=None):
    data = workload.config([0])
    data["phases"] = dict(SHORT_PHASES)
    if kinds is not None:
        data["scheme"]["kind"] = list(kinds)
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_span_is_entered(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    cfg_path = _short_config(tmp_path / "workload.json", workload)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # through the module attributes, which install has just wrapped
        cfg = config.load_config(str(cfg_path))
        for kind in workload.kinds:
            runner.run_single(cfg, kind, 0, tmp_path / kind)
    finally:
        tracer.uninstall()
    missing = [s for s in workload.spans if tracer.span_calls.get(s, [0])[0] == 0]
    assert not missing, f"spans never entered: {missing}"


def test_setup_probe_builds_every_kind(tmp_path):
    cfg_path = _short_config(tmp_path / "all.json", workloads.WORKLOADS["ref3-central"],
                             kinds=SCHEME_KINDS)
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(cfg_path)]
        + [f"{kind}:0" for kind in SCHEME_KINDS],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stamps = json.loads(proc.stdout.strip().splitlines()[-1])
    assert stamps["t_start"] <= stamps["t_imported"] <= stamps["t_config"] <= stamps["t_ready"]
