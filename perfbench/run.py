"""extbinom benchmark.

    python3 perfbench/run.py --workload rows --seed 1 --seconds 20 --trace 0

runs one workload (or ``--workload all``) against the checkout's src/
for about ``--seconds`` seconds.  Every round is a fresh worker process
(worker.py) that imports extbinom, generates its inputs from the seed,
runs the workload's operations back to back in a closed loop and checks
each output.  Rounds repeat until the time is used, and at least
MIN_ROUNDS rounds and MIN_OPS operations are measured.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced rounds and reports the per-layer
metrics, writing the spans to .bench_out/ when the run ends.  One line
per metric goes to stdout, then the machine, then one JSON object as
the last line.  ``--smoke`` runs one round at tiny sizes.

Stdlib only; exits 2 without a result when src/extbinom is missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import inputs  # noqa: E402
import speed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
MIN_ROUNDS = 3
MIN_OPS = 40
# Extra workers per round that stop before the first operation, so that
# set-up time, which varies most, has three times the samples.
SETUP_ONLY_PER_ROUND = 2

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p75_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "exact.build_s": "s",
    "exact.builds": "count",
    "exact.hits": "count",
    "exact.hit_ratio": "ratio",
    "exact.row_mbit": "Mbit",
    "exact.build_mbit_per_s": "Mbit/s",
    "exact.query_s": "s",
    "exact.queries": "count",
    "special.bernoulli_s": "s",
    "special.hermite_s": "s",
    "special.partitions": "count",
    "cumulants.closed_s": "s",
    "cumulants.moments_s": "s",
    "edgeworth.uniform_correction_s": "s",
    "edgeworth.general_s": "s",
    "edgeworth.coeff_kbit": "kbit",
    "harness.rate_sweep_s": "s",
    "harness.points": "count",
    "harness.points_per_s": "1/s",
    "cli.interp_s": "s",
    "cli.import_s": "s",
    "cli.numpy_import_s": "s",
    "cli.main_s": "s",
    "cli.parse_s": "s",
    "cli.out_kbytes": "kB",
    "cli.nonzero_exits": "count",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def spawn_round(workload: str, seed: int, traced: bool = False, smoke: bool = False,
                setup_only: bool = False) -> dict:
    """Run one round in a fresh worker process and return its report,
    with the worker's peak RSS from its rusage."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spawned = time.monotonic()
    argv = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
            "--spawn", repr(spawned)]
    argv += ["--traced"] * traced + ["--smoke"] * smoke + ["--setup-only"] * setup_only
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, cwd=ROOT)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    report = json.loads(out)
    report["rss_kb"] = usage.ru_maxrss
    return report


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    plain, traced, setups = [], [], []
    deadline = time.monotonic() + seconds
    while True:
        if trace:
            plain.append(spawn_round(workload, seed, smoke=smoke))
            traced.append(spawn_round(workload, seed, traced=True, smoke=smoke))
        else:
            # each set-up time with the import reference timed just before it
            for setup_only in [True] * SETUP_ONLY_PER_ROUND + [False]:
                ref = speed.time_reference("import")
                report = spawn_round(workload, seed, smoke=smoke, setup_only=setup_only)
                setups.append((report["setup_s"], ref))
            plain.append(report)
        if smoke:
            break
        ops = sum(len(r["latencies"]) for r in plain)
        if len(plain) >= MIN_ROUNDS and ops >= MIN_OPS and time.monotonic() >= deadline:
            break
    return {"plain": plain, "traced": traced, "setups": setups}


def op_factors(report: dict, workload: str) -> list[float]:
    """Scale factor of each operation of a round; see speed.py."""
    return speed.op_factors(report["reference_s"], len(report["latencies"]),
                            speed.SCALE_BY[workload])


def end_to_end(runs: dict, workload: str, scaled: bool = True) -> dict:
    """metric -> (value, samples).  Times are scaled to the nominal
    machine speed unless ``scaled`` is false."""
    plain = runs["plain"]
    lat_ms = [
        [x * 1e3 * (f if scaled else 1.0)
         for x, f in zip(r["latencies"], op_factors(r, workload))]
        for r in plain
    ]
    pooled = [x for lat in lat_ms for x in lat]
    setup = [s * (speed.NOMINAL_S["import"] / ref if scaled else 1.0)
             for s, ref in runs["setups"]]
    rss_kb = [r["cli_rss_kb"] if workload == "cli" else r["rss_kb"] for r in plain]
    return {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (statistics.median(sum(lat) / 1e3 for lat in lat_ms), len(plain)),
        "op_p50_ms": (statistics.median(pooled), len(pooled)),
        "op_p75_ms": (statistics.quantiles(pooled, n=4)[2], len(pooled)),
        "peak_rss_mb": (statistics.median(rss_kb) / 1024, len(plain)),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    """metric -> (value, samples): medians over the traced rounds."""
    out = {name: (statistics.median(r["layers"][name] for r in traced), len(traced))
           for name in PER_LAYER if name != "trace.overhead_s"}
    overhead = (statistics.median(r["wall_s"] for r in traced)
                - statistics.median(r["wall_s"] for r in plain))
    out["trace.overhead_s"] = (overhead, len(traced))
    return out


def git_commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine() -> dict:
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = "missing"
    return {"python": platform.python_version(), "numpy": numpy,
            "nproc": os.cpu_count(), "commit": git_commit()}


def write_trace(workload: str, seed: int, rounds: list[dict], info: dict) -> Path:
    """Write every traced round's spans, each with its self time."""
    for r in rounds:
        spans = r["spans"]
        for s in spans:
            s["self"] = s["end"] - s["start"]
        for s in spans:
            if s["parent"] is not None:
                spans[s["parent"]]["self"] -= s["end"] - s["start"]
    path = ROOT / ".bench_out" / f"trace-{workload}-seed{seed}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"machine": info,
                                "rounds": [r["spans"] for r in rounds]}))
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="extbinom benchmark")
    parser.add_argument("--workload", choices=(*inputs.WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one round per workload at tiny sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "extbinom" / "__init__.py").is_file():
        print(f"error: no extbinom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = inputs.WORKLOADS if args.workload == "all" else (args.workload,)
    info = machine()
    metrics, attempted, failed = {}, 0, 0
    try:
        for w in workloads:
            runs = run_workload(w, args.seed, args.seconds, bool(args.trace), args.smoke)
            rounds = runs["plain"] + runs["traced"]
            w_attempted = sum(r["attempted"] for r in rounds)
            w_failed = sum(r["failed"] for r in rounds)
            attempted += w_attempted
            failed += w_failed
            if args.trace:
                values, units = per_layer(runs["plain"], runs["traced"]), PER_LAYER
                raw = None
                path = write_trace(w, args.seed, runs["traced"], info)
                print(f"{w:<12} spans written to {path.relative_to(ROOT)}")
            else:
                values, units = end_to_end(runs, w), END_TO_END
                raw = end_to_end(runs, w, scaled=False)
                factor = statistics.median(f for r in runs["plain"] for f in op_factors(r, w))
                print(f"{w:<12} {'speed_factor':<31} {factor:>14.6g} {'1':<7} "
                      f"(n={len(runs['plain'])}; reference {speed.SCALE_BY[w]})")
            for name, (value, samples) in values.items():
                suffix = f"; raw {raw[name][0]:.6g}" if raw else ""
                print(f"{w:<12} {name:<31} {value:>14.6g} {units[name]:<7} "
                      f"(n={samples}{suffix})")
                key = name if len(workloads) == 1 else f"{w}.{name}"
                metrics[key] = {"value": value, "unit": units[name]}
            print(f"{w:<12} {'error_rate':<31} {w_failed / w_attempted:>14.6g} "
                  f"{'ratio':<7} ({w_failed} of {w_attempted} operations)")
            devs = [d for r in runs["plain"] for d in r["slope_devs"]]
            if w == "sweep" and devs:
                print(f"{w:<12} {'slope_dev_max':<31} {max(devs):>14.6g} "
                      f"{'1':<7} (n={len(devs)}; tolerance 0.3)")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("machine " + json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
