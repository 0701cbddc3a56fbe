"""One benchmark round: a fresh process that runs one workload's
operations against extbinom, checks each output outside the timed
region, and prints one JSON object on stdout.

Run by run.py as

    python3 perfbench/worker.py --workload rows --seed 1 --spawn <t> \
        [--traced] [--smoke] [--setup-only]

with PYTHONPATH pointing at the checkout's src.  ``--spawn`` is the
parent's CLOCK_MONOTONIC reading just before it started this process,
so set-up time covers interpreter start, importing extbinom (numpy
included) and generating the inputs.

Untraced rounds call each operation's own entry point and nothing else.
A traced round (``--traced``) calls the same operations, but first calls
every layer below them in dependency order (exact rows, then Bernoulli
numbers and Hermite polynomials, then cumulants, then correction
polynomials), each inside a span, so each span finds the lower caches
warm and its time is that layer's own work.  After the operations a
traced round runs a fixed layer probe and replays CLI argument lists in
process, so that every layer is measured on every workload, and times
the interpreter and the import from outside.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
import traceback

from extbinom.cumulants import cumulants_from_moments, cumulants_up_to
from extbinom.edgeworth import (
    approximate_scaled,
    correction_from_cumulants,
    standardize,
    uniform_correction,
)
from extbinom.exact import coefficient, composition_count, compute_row, scaled_probability
from extbinom.harness import central_ratio, exact_scaled_value, rate_sweep
from extbinom.special import bernoulli, enumerate_partition_solutions, hermite

import inputs
import oracle
import speed

SQRT_2PI = math.sqrt(2.0 * math.pi)

# A tiny operation of each kind, run after the operations of every
# traced round (see the module docstring).  q = 9 appears in no workload,
# so the probe's rows and corrections are cold.
PROBE = (
    {"kind": "build", "n": 24, "q": 9, "ks": [100]},
    {"kind": "query", "n": 24, "q": 9, "ks": [100]},
    {"kind": "correction", "v": 2, "q": 9, "general": True},
    {"kind": "sweep", "q": 9, "order": 1, "ns": [12, 24, 48]},
)
PROBE_CLI = (
    {"kind": "cli", "cmd": "coeff", "n": 24, "k": 100, "q": 9, "json": False},
    {"kind": "cli", "cmd": "qpoly", "q": 9, "nu": 2, "json": True},
)


class Direct:
    """Untraced calls: the operation's own entry points only."""

    traced = False

    def call(self, name, fn, *args):
        return fn(*args)


class Tracer:
    """Spans kept in memory: name, start, end, parent span, operation id.

    Besides the spans it notes what the per-layer metrics need: which
    cached calls missed, the rows and correction polynomials built, and
    the points the harness evaluated.
    """

    traced = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.parent: int | None = None
        self.op_id: int | None = None
        self.rows_built: list = []
        self.polys_built: list = []
        self.partitions = 0
        self.points = 0
        self.row_hits = 0
        self.row_builds = 0
        self._row_counts = (0, 0)

    def open(self, name: str, op_id) -> int:
        """Start an operation's root span; its layer spans are children."""
        self.spans.append({"name": name, "start": 0.0, "end": 0.0,
                           "parent": None, "op": op_id})
        self.parent, self.op_id = len(self.spans) - 1, op_id
        self._row_counts = _row_cache_counts()
        return self.parent

    def close(self, span_id: int, start: float, end: float) -> None:
        self.spans[span_id].update(start=start, end=end)
        self.parent = None
        hits, misses = _row_cache_counts()
        self.row_hits += hits - self._row_counts[0]
        self.row_builds += misses - self._row_counts[1]

    def call(self, name, fn, *args):
        info = getattr(fn, "cache_info", None)
        misses = info().misses if info else None
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        built = info().misses > misses if info else True
        self.spans.append({"name": name, "start": start, "end": end,
                           "parent": self.parent, "op": self.op_id, "built": built})
        if built:
            self._note(name, args, result)
        return result

    def _note(self, name, args, result) -> None:
        if name == "exact.build":
            self.rows_built.append(result)
        elif name == "edgeworth.uniform_correction":
            self.polys_built.append(result)
            self.partitions += len(enumerate_partition_solutions(args[0]))
        elif name == "edgeworth.general":
            self.polys_built.append(result)
            self.partitions += len(enumerate_partition_solutions(args[0]))
        elif name == "harness.rate_sweep":
            q, _, ns = args
            self.points += sum(n * q + 1 for n in ns)

    def durations(self, name: str, built_only: bool = False) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and (s["built"] or not built_only)]

    def total(self, name: str, built_only: bool = False) -> tuple[float, int]:
        spans = self.durations(name, built_only)
        return sum(spans), len(spans)


# -- dependency warm-up (traced rounds only) ---------------------------------

def _hermite_degrees(vs) -> list[int]:
    # correction v sums H_{2(v+s)} over s = 1..v (either route)
    return sorted({2 * (v + s) for v in vs for s in range(1, v + 1)})


def _warm_corrections(ctx, q: int, vs) -> None:
    vs = list(vs)
    if not vs:
        return
    ctx.call("special.bernoulli", bernoulli, 2 * max(vs) + 2)
    for d in _hermite_degrees(vs):
        ctx.call("special.hermite", hermite, d)
    for v in vs:
        ctx.call("edgeworth.uniform_correction", uniform_correction, v, q)


def _warm_cli(op: dict, ctx) -> None:
    cmd = op["cmd"]
    if cmd in ("coeff", "row", "expand"):
        ctx.call("exact.build", compute_row, op["n"], op["q"])
    if cmd == "expand":
        _warm_corrections(ctx, op["q"], range(1, op["order"] + 1))
    elif cmd == "sweep":
        for n in op["ns"]:
            ctx.call("exact.build", compute_row, n, op["q"])
        _warm_corrections(ctx, op["q"], range(1, op["order"] + 1))
    elif cmd == "cumulants":
        ctx.call("special.bernoulli", bernoulli, op["max_order"])
        ctx.call("cumulants.closed", cumulants_up_to, op["max_order"], op["q"])
        ctx.call("cumulants.moments", cumulants_from_moments, op["max_order"], op["q"])
    elif cmd == "qpoly":
        _warm_corrections(ctx, op["q"], [op["nu"]])


# -- operations ----------------------------------------------------------------

def run_build(op, ctx):
    return ctx.call("exact.build", compute_row, op["n"], op["q"])


def run_query(op, ctx):
    n, q = op["n"], op["q"]
    return [
        (
            ctx.call("exact.query", coefficient, n, k, q),
            ctx.call("exact.query", scaled_probability, n, k, q),
            ctx.call("exact.query", composition_count, k + n, n, q + 1),
            ctx.call("exact.query", central_ratio, n, q),
        )
        for k in op["ks"]
    ]


def run_sweep(op, ctx):
    q, order, ns = op["q"], op["order"], op["ns"]
    if ctx.traced:
        for n in ns:
            ctx.call("exact.build", compute_row, n, q)
        _warm_corrections(ctx, q, range(1, order + 1))
    return ctx.call("harness.rate_sweep", rate_sweep, q, order, ns)


def run_correction(op, ctx):
    v, q = op["v"], op["q"]
    top = 2 * v + 2  # the general order-2v term needs cumulants up to 2v+2
    if ctx.traced:
        ctx.call("special.bernoulli", bernoulli, top)
        for d in _hermite_degrees([v]):
            ctx.call("special.hermite", hermite, d)
    closed = ctx.call("cumulants.closed", cumulants_up_to, top, q)
    moments = ctx.call("cumulants.moments", cumulants_from_moments, top, q)
    uniform = ctx.call("edgeworth.uniform_correction", uniform_correction, v, q)
    general = None
    if op["general"]:
        general = ctx.call("edgeworth.general", correction_from_cumulants,
                           2 * v, closed, closed.gamma(2))
    return closed, moments, uniform, general


def _run_process(argv, capture: str = "stdout") -> tuple[int, bytes, int]:
    """Run argv to completion; return (exit code, captured bytes, peak RSS
    in KiB from the child's rusage)."""
    pipe, null = subprocess.PIPE, subprocess.DEVNULL
    proc = subprocess.Popen(
        argv,
        stdout=pipe if capture == "stdout" else null,
        stderr=pipe if capture == "stderr" else null,
    )
    data = b""
    stream = proc.stdout if capture == "stdout" else proc.stderr
    if stream is not None:
        with stream:
            data = stream.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, data, usage.ru_maxrss


def run_cli(op, ctx):
    argv = [sys.executable, "-m", "extbinom.cli", *inputs.cli_argv(op)]
    return ctx.call("cli.subprocess", _run_process, argv)


RUNNERS = {
    "build": run_build,
    "query": run_query,
    "sweep": run_sweep,
    "correction": run_correction,
    "cli": run_cli,
}


# -- checks (outside the timed region) -------------------------------------------

def _x(n: int, k: int, q: int) -> float:
    # standardize returns a point with .x; the README documents a float,
    # so accept either and keep the benchmark valid across that change
    point = standardize(n, k, q)
    return getattr(point, "x", point)


def expected_cli(op: dict) -> str:
    """The library's result for a CLI operation, rendered per the README's
    CSV/JSON contract."""
    cmd, as_json = op["cmd"], op["json"]
    comments, footer = [], None
    if cmd == "coeff":
        value = coefficient(op["n"], op["k"], op["q"])
        if not as_json:
            return f"{value}\n"
        rows = [{"n": op["n"], "k": op["k"], "q": op["q"], "coefficient": value}]
    elif cmd == "row":
        coeffs = compute_row(op["n"], op["q"]).coeffs
        rows = [{"k": k, "coefficient": c} for k, c in enumerate(coeffs)]
    elif cmd == "expand":
        n, k, q, order = op["n"], op["k"], op["q"], op["order"]
        x = _x(n, k, q)
        exact = exact_scaled_value(n, k, q)
        approx = approximate_scaled(n, k, q, order)
        if op["terms"]:
            rows = [{"term": "x", "value": x},
                    {"term": "gaussian", "value": math.exp(-0.5 * x * x) / SQRT_2PI}]
            rows += [{"term": f"nu={v}", "value": uniform_correction(v, q)(x) / n**v}
                     for v in range(1, order + 1)]
            rows += [{"term": "total", "value": approx},
                     {"term": "exact", "value": exact},
                     {"term": "abs_error", "value": abs(exact - approx)}]
        else:
            rows = [{"n": n, "k": k, "q": q, "order": order, "x": x, "exact": exact,
                     "approximation": approx, "abs_error": abs(exact - approx)}]
    elif cmd == "sweep":
        report = rate_sweep(op["q"], op["order"], op["ns"])
        rows = [{"n": r.n, "sup_error": r.sup_error, "argmax_k": r.argmax_k}
                for r in report.records]
        comments = [f"fitted_slope={report.fitted_slope!r},"
                    f"stderr={report.slope_stderr!r}"]
        footer = {"fitted_slope": report.fitted_slope,
                  "slope_stderr": report.slope_stderr}
    elif cmd == "cumulants":
        closed = cumulants_up_to(op["max_order"], op["q"])
        moments = cumulants_from_moments(op["max_order"], op["q"])
        rows = [{"k": k, "gamma": closed.gamma(k), "oracle_gamma": moments.gamma(k),
                 "match": closed.gamma(k) == moments.gamma(k)}
                for k in range(1, op["max_order"] + 1)]
    elif cmd == "qpoly":
        coeffs = uniform_correction(op["nu"], op["q"]).poly.coeffs
        rows = [{"power": i, "coefficient": c} for i, c in enumerate(coeffs) if c != 0]
    else:
        raise ValueError(f"unknown CLI command {cmd!r}")
    if as_json:
        return oracle.render_json(rows + ([footer] if footer else []))
    return oracle.render_csv(rows, comments)


def check(op: dict, out) -> bool:
    """Whether one operation's output is correct."""
    kind = op["kind"]
    if kind == "build":
        return oracle.check_row(op["n"], op["q"], out.coeffs, op["ks"])
    if kind == "query":
        return len(out) == len(op["ks"]) and all(
            oracle.check_query(op["n"], op["q"], k, values)
            for k, values in zip(op["ks"], out))
    if kind == "sweep":
        return oracle.check_sweep(op["order"], op["ns"], out.records, out.fitted_slope)
    if kind == "correction":
        return oracle.check_correction(*out)
    if kind == "cli":
        code, stdout, _ = out
        return code == 0 and stdout == expected_cli(op).encode()
    raise ValueError(f"unknown operation kind {kind!r}")


def _checked(op: dict, out) -> bool:
    try:
        return check(op, out)
    except Exception:  # a check that cannot run counts as a failed operation
        traceback.print_exc()
        return False


# -- a round ---------------------------------------------------------------------

def run_ops(ops, ctx, sampler=None, first: str = "op") -> dict:
    """Run ops in a closed loop, each timed, then checked; between ops
    the sampler may time the reference loop."""
    latencies, failed, slope_devs, rss_kb, nonzero = [], 0, [], 0, 0
    first_op_at = time.monotonic()
    for i, op in enumerate(ops):
        span = ctx.open(f"{first}:{op['kind']}", i) if ctx.traced else None
        start = time.perf_counter()
        try:
            out = RUNNERS[op["kind"]](op, ctx)
        except Exception:  # an operation that raises counts as failed
            end = time.perf_counter()
            traceback.print_exc()
            out = None
        else:
            end = time.perf_counter()
        if span is not None:
            ctx.close(span, start, end)
        latencies.append(end - start)
        ok = out is not None and _checked(op, out)
        failed += not ok
        if ok and op["kind"] == "sweep":
            slope_devs.append(oracle.slope_deviation(op["order"], out.fitted_slope))
        if out is not None and op["kind"] == "cli":
            nonzero += out[0] != 0
            rss_kb = max(rss_kb, out[2])
        if sampler is not None:
            sampler.sample(after=i)
    return {"first_op_at": first_op_at, "latencies": latencies, "failed": failed,
            "slope_devs": slope_devs, "cli_rss_kb": rss_kb, "nonzero_exits": nonzero}


def _clear_caches() -> None:
    for fn in (compute_row, bernoulli, hermite, uniform_correction):
        clear = getattr(fn, "cache_clear", None)
        if clear is not None:
            clear()


def replay_cli(ops, tr: Tracer) -> tuple[int, int]:
    """Run CLI argument lists in process, each from cold caches as in a
    fresh CLI process, with the library warmed in dependency order first;
    return (bytes written, nonzero exits)."""
    out_bytes = nonzero = 0
    for i, op in enumerate(ops):
        argv = inputs.cli_argv(op)
        _clear_caches()
        span = tr.open("replay:cli", i)
        start = time.perf_counter()
        _warm_cli(op, tr)
        tr.call("cli.parse", _parse, argv)
        code, text = tr.call("cli.main", _main_captured, argv)
        tr.close(span, start, time.perf_counter())
        out_bytes += len(text.encode())
        nonzero += code != 0
    return out_bytes, nonzero


def _parse(argv):
    from extbinom import cli  # imported here: untraced rounds do not need it

    return cli.build_parser().parse_args(argv)


def _main_captured(argv) -> tuple[int, str]:
    from extbinom import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def _import_times() -> tuple[float, float]:
    """Cumulative seconds of ``import extbinom.cli`` and of numpy within
    it, from ``python -X importtime``."""
    _, err, _ = _run_process(
        [sys.executable, "-X", "importtime", "-c", "import extbinom.cli"],
        capture="stderr")
    total = numpy_us = 0
    for line in err.decode().splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        name = parts[2][1:]
        try:
            cumulative = int(parts[1])
        except ValueError:  # the header line
            continue
        if name.strip() == "numpy":
            numpy_us = cumulative
        if name in ("extbinom", "extbinom.cli"):  # top level of the -c import
            total += cumulative
    return total / 1e6, numpy_us / 1e6


def layer_metrics(tr: Tracer, out_bytes: int, nonzero: int) -> dict:
    start = time.perf_counter()
    _run_process([sys.executable, "-c", "pass"], capture="none")
    interp_s = time.perf_counter() - start
    import_s, numpy_s = _import_times()

    build_s, _ = tr.total("exact.build", built_only=True)
    query_s, queries = tr.total("exact.query")
    sweep_s, _ = tr.total("harness.rate_sweep")
    row_mbit = sum(c.bit_length() for row in tr.rows_built for c in row.coeffs) / 1e6
    coeff_kbit = sum(c.numerator.bit_length() + c.denominator.bit_length()
                     for p in tr.polys_built for c in p.poly.coeffs) / 1e3
    return {
        "exact.build_s": build_s,
        "exact.builds": tr.row_builds,
        "exact.hits": tr.row_hits,
        "exact.hit_ratio": tr.row_hits / (tr.row_hits + tr.row_builds)
        if tr.row_hits + tr.row_builds else 0.0,
        "exact.row_mbit": row_mbit,
        "exact.build_mbit_per_s": row_mbit / build_s if build_s else 0.0,
        "exact.query_s": query_s,
        "exact.queries": queries,
        "special.bernoulli_s": tr.total("special.bernoulli")[0],
        "special.hermite_s": tr.total("special.hermite")[0],
        "special.partitions": tr.partitions,
        "cumulants.closed_s": tr.total("cumulants.closed")[0],
        "cumulants.moments_s": tr.total("cumulants.moments")[0],
        "edgeworth.uniform_correction_s": tr.total("edgeworth.uniform_correction")[0],
        "edgeworth.general_s": tr.total("edgeworth.general")[0],
        "edgeworth.coeff_kbit": coeff_kbit,
        "harness.rate_sweep_s": sweep_s,
        "harness.points": tr.points,
        "harness.points_per_s": tr.points / sweep_s if sweep_s else 0.0,
        "cli.interp_s": interp_s,
        "cli.import_s": import_s,
        "cli.numpy_import_s": numpy_s,
        # per call, like the interpreter and import times
        "cli.main_s": statistics.median(tr.durations("cli.main")),
        "cli.parse_s": statistics.median(tr.durations("cli.parse")),
        "cli.out_kbytes": out_bytes / 1e3,
        "cli.nonzero_exits": nonzero,
    }


def _row_cache_counts() -> tuple[int, int]:
    info = getattr(compute_row, "cache_info", None)
    if info is None:
        return 0, 0
    ci = info()
    return ci.hits, ci.misses


def run_round(workload: str, seed: int, spawned: float, traced: bool = False,
              smoke: bool = False, setup_only: bool = False) -> dict:
    """One round; with ``setup_only`` it stops where the first operation
    would start and reports only the set-up time."""
    ops = inputs.make(workload, seed, smoke)
    if setup_only:
        return {"setup_s": time.monotonic() - spawned}
    ctx = Tracer() if traced else Direct()
    sampler = speed.Sampler(speed.SCALE_BY[workload])
    result = run_ops(ops, ctx, sampler)
    sampler.sample(after=len(ops) - 1, force=True)
    result["reference_s"] = sampler.samples
    result["setup_s"] = result.pop("first_op_at") - spawned
    result["wall_s"] = sum(result["latencies"])
    result["attempted"] = len(ops)
    if traced:
        probe = run_ops(PROBE, ctx, first="probe")
        replay = [op for op in ops if op["kind"] == "cli"] + list(PROBE_CLI)
        out_bytes, nonzero = replay_cli(replay, ctx)
        result["attempted"] += len(PROBE)
        result["failed"] += probe["failed"]
        result["layers"] = layer_metrics(
            ctx, out_bytes, nonzero + result["nonzero_exits"])
        result["spans"] = ctx.spans
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawn", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run_round(args.workload, args.seed, args.spawn, args.traced, args.smoke,
                       args.setup_only)
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
