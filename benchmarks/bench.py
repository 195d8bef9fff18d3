"""slicesim benchmark: one workload per call, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 benchmarks/bench.py --workload ref3-percell --seed 1 --seconds 30 --trace 0

The workload (see workloads.py and BENCHMARK.json) is a closed loop with one
client: runs execute serially in this process through the public
``run_single``, each waiting for the previous one, with one BLAS thread.
Every run writes to a temporary directory inside the checkout that is removed
afterwards, and every ``steps.csv`` is checked against the golden sha256
digests in golden.json.

``--trace 0`` runs the matrix and then more rounds of it until ``--seconds``
have passed, and reports the end-to-end metrics. ``--trace 1`` runs the
matrix once untraced and twice with span timers (spans.py), checks that the
two traced passes give identical deterministic counts and that the spans
cover the traced wall time, and reports the per-layer metrics.
``--held-out`` runs the held-out run seeds instead of the usual ones.
``--record-golden`` records the digests of every workload for the running
numpy version and exits.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# one BLAS thread, set before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import HELD_OUT_SEEDS, RUN_SEEDS, WORKLOADS, config_sha256, rounds  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(1, str(ROOT / "src"))
GOLDEN_PATH = BENCH_DIR / "golden.json"
SETUP_PROBES = 7
# Layers that run only with a learner; they must stay at zero without one.
LEARNER_LAYERS = (
    "schemes.train", "mdp.state", "mdp.project_or_reject", "td3.select_action",
    "td3.buffer_add", "td3.buffer_sample", "td3.train_step", "td3.critic_update",
    "td3.compute_targets", "td3.actor_update", "td3.sync_targets",
    "nn.forward", "nn.backward", "nn.adam")
REPEAT_COUNTS = ("netsim.fp_iterations", "netsim.mask_value.calls", "td3.critic_updates",
                 "nn.adam.calls", "runner.csv_bytes")
MIN_SPAN_COVERAGE = 0.95


@dataclass
class Run:
    kind: str
    seed: int
    steps: int = 0
    wall_s: float = 0.0
    csv_bytes: int = 0
    digest: str = ""
    eval_reward: float = float("nan")
    error: str = ""


@dataclass
class Pass:
    runs: list = field(default_factory=list)
    wall_s: float = 0.0
    matrix_runs: int = 0

    def steps_per_s(self, kind: str) -> float:
        runs = [r for r in self.runs if r.kind == kind]
        wall = sum(r.wall_s for r in runs)
        return sum(r.steps for r in runs) / wall if wall else 0.0


class Golden:
    """Expected ``steps.csv`` digests for the running numpy version."""

    def __init__(self, numpy_version: str, workload, config_hash: str):
        data = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
        entry = data.get(numpy_version, {}).get(workload.name)
        if entry is None:
            self.digests, self.reason = None, f"no golden digests for numpy {numpy_version}"
        elif entry["config_sha256"] != config_hash:
            self.digests, self.reason = None, "golden digests were recorded for another config"
        else:
            self.digests, self.reason = entry["steps_csv_sha256"], ""
        self.mismatches = 0

    def check(self, run: Run) -> bool:
        """False when a digest is recorded for the run and differs."""
        if self.digests is None:
            return True
        ok = self.digests.get(run.kind, {}).get(str(run.seed)) == run.digest
        self.mismatches += not ok
        return ok

    @property
    def status(self) -> str:
        if self.digests is None:
            return f"unavailable ({self.reason})"
        return "matched" if self.mismatches == 0 else f"{self.mismatches} mismatched"


def fix_mmap_threshold() -> None:
    """Pin glibc's mmap threshold at its default of 128 KiB.

    glibc raises the threshold after freeing a large block, so a later
    replay buffer may come from the heap and be zeroed page by page instead
    of mapped lazily. Whether that happens depends on the order and number
    of earlier runs, which made peak_rss_mb swing by 40 MB between calls.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(-3, 128 * 1024)  # M_MMAP_THRESHOLD


def _import_program():
    try:
        import numpy
        from slicesim.harness import config, runner
    except ImportError as e:
        raise SystemExit(f"bench: cannot import slicesim from {ROOT / 'src'}: {e}")
    return numpy, config, runner


def execute(runner, cfg, kind: str, seed: int, tmp: Path) -> Run:
    run = Run(kind, seed)
    out = tmp / f"{kind}-seed{seed}"
    t0 = time.perf_counter()
    try:
        summary = runner.run_single(cfg, kind, seed, out)
    except Exception:
        run.error = traceback.format_exc()
    run.wall_s = time.perf_counter() - t0
    csv_path = out / "steps.csv"
    if not run.error:
        data = csv_path.read_bytes()
        run.steps = summary["total_steps"]
        run.csv_bytes = len(data)
        run.digest = hashlib.sha256(data).hexdigest()
        run.eval_reward = summary["mean_eval_reward"]
        if summary["simplex_violations"]:
            run.error = f"{summary['simplex_violations']} simplex violations"
    shutil.rmtree(out, ignore_errors=True)
    return run


def run_pass(config, runner, cfg_path: Path, plan, tmp: Path, golden: Golden,
             min_seconds: float = 0.0) -> Pass:
    """Every round of the plan once, then more rounds until min_seconds."""
    p = Pass(matrix_runs=sum(len(r) for r in plan))
    start = time.perf_counter()
    cfg = config.load_config(str(cfg_path))
    i = 0
    while i < len(plan) or time.perf_counter() - start < min_seconds:
        done = [execute(runner, cfg, kind, seed, tmp) for kind, seed in plan[i % len(plan)]]
        for run in done:
            if not run.error and not golden.check(run):
                run.error = "steps.csv digest differs from golden"
            status = f"FAILED: {run.error.strip().splitlines()[-1]}" if run.error else "ok"
            print(f"run {run.kind} seed {run.seed}: {run.steps} steps in {run.wall_s:.3f} s, {status}")
        p.runs += done
        i += 1
    p.wall_s = time.perf_counter() - start
    return p


def probe_setup(cfg_path: Path, plan) -> list[dict]:
    """Set-up time of fresh processes, from spawn to just before the first step."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(cfg_path)]
    cmd += [f"{kind}:{seed}" for rnd in plan for kind, seed in rnd]
    probes = []
    for i in range(SETUP_PROBES + 1):
        spawned = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode:
            raise SystemExit(f"bench: setup probe failed:\n{proc.stderr}")
        stamps = json.loads(proc.stdout.strip().splitlines()[-1])
        if i:  # the first probe fills the bytecode cache and is not counted
            probes.append({
                "setup_s": stamps["t_ready"] - spawned,
                "import_s": stamps["t_imported"] - stamps["t_start"],
                "load_config_s": stamps["t_config"] - stamps["t_imported"],
                "build_s": stamps["t_ready"] - stamps["t_config"],
            })
    return probes


def git_revision():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() or None


def blas_info(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        return "unknown"


def fingerprint(np, args, config_hash: str, load_start) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "thread_env": {v: os.environ.get(v) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "git_revision": git_revision(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "run_seeds": list(HELD_OUT_SEEDS if args.held_out else RUN_SEEDS),
        "config_sha256": config_hash,
    }


def low_rate(runs) -> float:
    """10th percentile of the per-run step rates.

    The host's speed swings by up to 2x in bursts of a few seconds when
    neighbours go quiet. The low tail tracks its steady, contended speed and
    spreads far less across workload seeds than the median or the total.
    """
    rates = [r.steps / r.wall_s for r in runs if r.steps]
    if len(rates) < 2:
        return rates[0] if rates else 0.0
    return statistics.quantiles(rates, n=10, method="inclusive")[0]


def end_to_end_metrics(main: Pass, probes) -> dict:
    rewards = [r.eval_reward for r in main.runs[:main.matrix_runs] if r.steps]
    attempted = len(main.runs)
    return {
        "steps_per_s": low_rate(main.runs),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "eval_reward": statistics.fmean(rewards) if rewards else 0.0,
        "run_success": 1.0 - sum(bool(r.error) for r in main.runs) / attempted,
    }


def pass_metrics(t, p: Pass) -> dict:
    """Per-layer times and counts of one traced pass over the matrix."""
    m = {}
    for g in ("netsim.step", "schemes.act", "schemes.record", "schemes.train",
              "td3.select_action", "td3.critic_update", "td3.compute_targets",
              "td3.actor_update", "runner"):
        m[f"{g}.self_s"] = t.self_s(g)
    for g in ("netsim.walk_users", "netsim.solve_coupled_loads", "netsim.compute_kpis",
              "netsim.validate_allocation", "netsim.mask_value", "metrics.resource_efficiency",
              "mdp.state", "mdp.reward", "mdp.project_or_reject", "td3.buffer_add",
              "td3.buffer_sample", "td3.sync_targets", "nn.forward", "nn.backward", "nn.adam"):
        m[f"{g}.s"] = t.inclusive_s(g)
    for g in ("netsim.step", "netsim.mask_value", "metrics.resource_efficiency",
              "td3.train_step", "nn.forward", "nn.adam"):
        m[f"{g}.calls"] = t.calls(g)
    for key in ("netsim.fp_iterations", "netsim.fp_nonconverged", "nn.adam.params", "nn.flops"):
        m[key] = t.counters.get(key, 0)
    solves = t.calls("netsim.solve_coupled_loads")
    m["netsim.fp_iters_per_solve"] = m["netsim.fp_iterations"] / solves if solves else 0.0
    m["td3.critic_updates"] = t.calls("td3.critic_update")
    m["td3.actor_updates"] = t.calls("td3.actor_update")
    m["td3.replay_nbytes"] = t.replay_nbytes
    m["runner.csv_bytes"] = sum(r.csv_bytes for r in p.runs)
    m["trace.coverage"] = t.total_self_s() / p.wall_s
    return m


def layer_metrics(untraced: Pass, traced: list, tracers: list, probes) -> tuple[dict, list]:
    """Per-layer metrics: the mean over the traced passes, plus each pass's own."""
    from slicesim.schemes import SCHEME_KINDS

    per_pass = [pass_metrics(t, p) for t, p in zip(tracers, traced)]
    m = {k: statistics.fmean(d[k] for d in per_pass) for k in per_pass[0]}
    for phase in ("explore", "train", "eval"):
        samples = [x for t in tracers for x in t.step_ms[phase]]
        pct = statistics.quantiles(samples, n=100, method="inclusive")
        m[f"runner.step_ms.{phase}.p50"] = pct[49]
        m[f"runner.step_ms.{phase}.p99"] = pct[98]
        m[f"runner.step_ms.{phase}.n"] = len(samples)
    for kind in SCHEME_KINDS:
        m[f"schemes.steps_per_s.{kind}"] = untraced.steps_per_s(kind)
    m["schemes.build_scheme.s"] = statistics.median(p["build_s"] for p in probes)
    m["config.load_config.s"] = statistics.median(p["load_config_s"] for p in probes)
    m["setup.import_s"] = statistics.median(p["import_s"] for p in probes)
    untraced_rate = low_rate(untraced.runs)
    m["trace.overhead"] = (low_rate([r for p in traced for r in p.runs]) / untraced_rate
                           if untraced_rate else 0.0)
    return m, per_pass


def trace_checks(workload, tracers: list, per_pass: list) -> list[str]:
    """Problems with the traced passes; empty when the trace is sound."""
    problems = []
    for t in tracers:
        problems += [f"span {span} was never entered" for span in workload.spans
                     if not t.span_calls.get(span, [0])[0]]
        if not workload.learns:
            problems += [f"learner layer {g} ran on a workload without a learner"
                         for g in LEARNER_LAYERS if t.calls(g)]
    repeat = [{k: d[k] for k in REPEAT_COUNTS} for d in per_pass]
    if any(r != repeat[0] for r in repeat):
        problems.append(f"deterministic counts differ between traced passes: {repeat}")
    for d in per_pass:
        if d["trace.coverage"] < MIN_SPAN_COVERAGE:
            problems.append(f"spans cover only {d['trace.coverage']:.3f} of the traced wall time")
    return list(dict.fromkeys(problems))


def record_golden(np, config, runner, tmp: Path) -> None:
    data = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    entry = {}
    for w in WORKLOADS.values():
        cfg_dict = w.config(RUN_SEEDS + HELD_OUT_SEEDS)
        cfg_path = tmp / f"{w.name}.json"
        cfg_path.write_text(json.dumps(cfg_dict, indent=2))
        cfg = config.load_config(str(cfg_path))
        digests = {}
        for kind in w.kinds:
            for seed in RUN_SEEDS + HELD_OUT_SEEDS:
                run = execute(runner, cfg, kind, seed, tmp)
                if run.error:
                    raise SystemExit(f"bench: {w.name} {kind} seed {seed} failed:\n{run.error}")
                digests.setdefault(kind, {})[str(seed)] = run.digest
                print(f"{w.name} {kind} seed {seed}: {run.digest}")
        entry[w.name] = {"config_sha256": config_sha256(cfg_dict), "steps_csv_sha256": digests}
    data[np.__version__] = entry
    GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def declared_metrics(trace: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)
    if not args.record_golden and args.workload is None:
        ap.error("--workload is required")
    load_start = os.getloadavg()
    fix_mmap_threshold()
    np, config, runner = _import_program()
    units = declared_metrics(bool(args.trace))

    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        if args.record_golden:
            record_golden(np, config, runner, tmp)
            return 0
        workload = WORKLOADS[args.workload]
        cfg_dict = workload.config(RUN_SEEDS + HELD_OUT_SEEDS)
        config_hash = config_sha256(cfg_dict)
        cfg_path = tmp / "workload.json"
        cfg_path.write_text(json.dumps(cfg_dict, indent=2))
        golden = Golden(np.__version__, workload, config_hash)
        plan = rounds(workload, HELD_OUT_SEEDS if args.held_out else RUN_SEEDS, args.seed)

        probes = probe_setup(cfg_path, plan)
        problems = []
        if args.trace:
            from spans import Tracer
            untraced = run_pass(config, runner, cfg_path, plan, tmp, golden)
            passes, traced, tracers = [untraced], [], []
            for _ in range(2):
                tracer = Tracer()
                tracer.install()
                try:
                    traced.append(run_pass(config, runner, cfg_path, plan, tmp, golden))
                finally:
                    tracer.uninstall()
                tracers.append(tracer)
            passes += traced
            metrics, per_pass = layer_metrics(untraced, traced, tracers, probes)
            problems = trace_checks(workload, tracers, per_pass)
            for g, (calls, incl, own) in sorted(tracers[0].groups.items(), key=lambda kv: -kv[1][2]):
                if calls:
                    print(f"span {g}: calls={calls} inclusive_s={incl:.4f} self_s={own:.4f}")
        else:
            main_pass = run_pass(config, runner, cfg_path, plan, tmp, golden, args.seconds)
            passes = [main_pass]
            metrics = end_to_end_metrics(main_pass, probes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if set(metrics) != set(units):
        raise SystemExit(f"bench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    runs = [r for p in passes for r in p.runs]
    failed = sum(bool(r.error) for r in runs)
    print(f"fingerprint: {json.dumps(fingerprint(np, args, config_hash, load_start))}")
    print(f"golden digests: {golden.status}")
    print(f"run_failures: {failed} of {len(runs)}")
    for problem in problems:
        print(f"trace check failed: {problem}")
    for name in units:
        print(f"metric {name} = {metrics[name]:.6g} {units[name]}")
    correct = failed == 0 and golden.status == "matched" and not problems
    result = {"correct": correct, "attempted": len(runs), "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                          for name in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
