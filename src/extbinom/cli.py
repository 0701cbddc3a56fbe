"""Command-line front end.

Subcommands expose the exact core (coeff, row), the approximation
(expand, qpoly, cumulants) and the verification harness (sweep) as
batch commands.  Tabular output is CSV by default (comma separated, LF
line endings, header row, comment lines prefixed '#'); --json switches
to a JSON array of objects.  Rationals are rendered exactly as "p/q",
floats with full round-trip precision.  Each ``cmd_*`` returns its text,
which one renderer, ``_render``, builds in either format (``coeff``
alone prints its bare value as CSV); ``main`` is the only writer, to
--out or to stdout, which it flushes before it returns, and it never
ends the process.  Exit code 0 on success, 2 on a usage or domain
error, which includes a float that is not finite (nan, inf) in any
cell, an --order or --nu above MAX_ORDER and a --max-order above
MAX_CUMULANT_ORDER: ``main`` checks these limits before any subcommand
runs.  A failed write, to --out or to stdout, or a closed stdout, also
exits 2, and so does an error whose ``error:`` line stderr cannot take.

A short command's time is mostly start-up, so each subcommand imports,
when it runs, only the library code it calls, and ``_render`` imports
``json`` only for JSON output:

* ``coeff`` and ``row`` read the recurrence kernel
  ``extbinom._recurrence`` alone: no ``extbinom.exact``, ``fractions`` or
  ``dataclasses``;
* ``expand``, ``qpoly`` and ``cumulants`` read the record-free kernel
  ``extbinom.special``, which loads ``fractions``: no ``dataclasses``, nor
  the ``cumulants`` and ``edgeworth`` modules that wrap the kernel;
* ``sweep`` alone loads ``extbinom.exact``, ``extbinom.harness``,
  ``dataclasses`` and numpy.

``coeff``, ``row`` and ``expand`` are one-shot and build no cached row.
"""

from __future__ import annotations

import argparse
import atexit
import math
import os
import sys

# Largest --order (expand, sweep) and --nu (qpoly).  Measured on a 2-vCPU
# box with Python 3.11, whole commands as README states them: `expand 3 1
# 8 --order 40`, which builds every correction up to order 40 at q = 8,
# takes about 0.11 s (median of 9 runs); the same sum to order 60,
# `approximate_scaled(3, 1, 8, 60)` in a new process, about 0.6 s.
MAX_ORDER = 40
# Largest --max-order (cumulants): `cumulants 8 --max-order 400 --oracle`
# takes about 0.26 s on the same box, 600 about 0.8 s (0.6 s at q = 2).
MAX_CUMULANT_ORDER = 400
# the bounded options by argparse dest, checked in main before dispatch
LIMITS = {"order": MAX_ORDER, "nu": MAX_ORDER, "max_order": MAX_CUMULANT_ORDER}


def _render(args, rows: list[dict], comments=(), footer: dict | None = None) -> str:
    """Rows as CSV (comments as '#' lines) or as JSON (footer appended as
    a trailing object, Fractions as "p/q" strings).  A CSV cell is a bool
    as true/false and any other value by its str: a float by repr, a
    Fraction as "p/q".  No cell needs quoting, since each is a number, a
    bool or a fixed column or term name.  A float cell or footer value
    that is not finite is refused with a ValueError."""
    for row in [*rows, footer or {}]:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{key} is not a finite number: {value!r}")
    if args.json:
        import json

        rows = rows + [footer] if footer else rows
        return json.dumps(rows, indent=2, default=str) + "\n"

    def cell(v):
        return ("true" if v else "false") if isinstance(v, bool) else str(v)

    lines = [",".join(rows[0])]
    lines += [",".join(map(cell, row.values())) for row in rows]
    lines += [f"# {comment}" for comment in comments]
    return "\n".join(lines) + "\n"


def cmd_coeff(args) -> str:
    from extbinom._recurrence import coefficient

    value = coefficient(args.n, args.k, args.q)
    row = {"n": args.n, "k": args.k, "q": args.q, "coefficient": value}
    return _render(args, [row]) if args.json else f"{value}\n"


def cmd_row(args) -> str:
    from extbinom._recurrence import row

    coeffs = row(args.n, args.q)
    return _render(args, [{"k": k, "coefficient": c} for k, c in enumerate(coeffs)])


def cmd_expand(args) -> str:
    from extbinom.special import (
        approximate_scaled,
        exact_scaled_value,
        gaussian,
        standardize,
        uniform_polynomial,
    )

    n, k, q, order = args.n, args.k, args.q, args.order
    exact = exact_scaled_value(n, k, q)
    approx = approximate_scaled(n, k, q, order)
    x = standardize(n, k, q)
    if args.terms:
        density = gaussian(x)
        rows = [{"term": "x", "value": x}, {"term": "gaussian", "value": density}]
        for v in range(1, order + 1):  # uniform_correction(v, q)(x) / n**v
            value = density * uniform_polynomial(v, q)(x) / n**v
            rows.append({"term": f"nu={v}", "value": value})
        rows.append({"term": "total", "value": approx})
        rows.append({"term": "exact", "value": exact})
        rows.append({"term": "abs_error", "value": abs(exact - approx)})
    else:
        rows = [
            {
                "n": n,
                "k": k,
                "q": q,
                "order": order,
                "x": x,
                "exact": exact,
                "approximation": approx,
                "abs_error": abs(exact - approx),
            }
        ]
    return _render(args, rows)


def cmd_sweep(args) -> str:
    from extbinom.harness import rate_sweep

    report = rate_sweep(args.q, args.order, args.n_list)
    rows = [
        {"n": r.n, "sup_error": r.sup_error, "argmax_k": r.argmax_k}
        for r in report.records
    ]
    slope, stderr = report.fitted_slope, report.slope_stderr
    return _render(
        args, rows, [f"fitted_slope={slope!r},stderr={stderr!r}"],
        {"fitted_slope": slope, "slope_stderr": stderr},
    )


def cmd_cumulants(args) -> str:
    from extbinom.special import gammas_from_moments, gammas_up_to

    gammas = gammas_up_to(args.max_order, args.q)
    rows = [{"k": k, "gamma": gamma} for k, gamma in enumerate(gammas, 1)]
    if args.oracle:
        oracle = gammas_from_moments(args.max_order, args.q)
        for row, gamma in zip(rows, oracle):
            row["oracle_gamma"] = gamma
            row["match"] = row["gamma"] == gamma
    return _render(args, rows)


def cmd_qpoly(args) -> str:
    from extbinom.special import uniform_polynomial

    poly = uniform_polynomial(args.nu, args.q)
    rows = [
        {"power": i, "coefficient": c}
        for i, c in enumerate(poly.coeffs)
        if c != 0
    ]
    return _render(args, rows)


def _n_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extbinom",
        description="Exact extended binomial coefficients and their Gaussian "
        "approximation with higher-order corrections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, fmt=None) -> None:
        fmt = fmt or p  # row passes the group in which --json excludes --csv
        fmt.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
        p.add_argument("--out", metavar="PATH", help="write output to a file")

    p = sub.add_parser("coeff", help="exact coefficient for one (n, k, q)")
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("q", type=int)
    common(p)
    p.set_defaults(func=cmd_coeff)

    p = sub.add_parser("row", help="full exact coefficient row for (n, q)")
    p.add_argument("n", type=int)
    p.add_argument("q", type=int)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--csv", action="store_true", help="emit CSV (the default)")
    common(p, fmt)
    p.set_defaults(func=cmd_row)

    p = sub.add_parser(
        "expand", help="exact scaled value vs approximation at one (n, k, q)"
    )
    p.add_argument("n", type=int)
    p.add_argument("k", type=int)
    p.add_argument("q", type=int)
    p.add_argument(
        "--order", type=int, default=0,
        help=f"number of correction terms, at most {MAX_ORDER} "
        "(0 = plain normal approximation)",
    )
    p.add_argument(
        "--terms", action="store_true",
        help="one row per term: x, gaussian, each correction, total",
    )
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("sweep", help="sup-error sweep over n with a fitted decay rate")
    p.add_argument("q", type=int)
    p.add_argument(
        "--order", type=int, default=0,
        help=f"number of correction terms, at most {MAX_ORDER}",
    )
    p.add_argument(
        "--n-list", type=_n_list, default=[50, 100, 200, 400],
        metavar="N1,N2,...", help="comma-separated n values (at least 3, increasing)",
    )
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cumulants", help="exact cumulants of the uniform on {0..q}")
    p.add_argument("q", type=int)
    p.add_argument(
        "--max-order", type=int, default=8, metavar="K",
        help=f"highest cumulant order, at most {MAX_CUMULANT_ORDER}",
    )
    p.add_argument(
        "--oracle", action="store_true",
        help="also derive each cumulant from raw moments and flag mismatches",
    )
    common(p)
    p.set_defaults(func=cmd_cumulants)

    p = sub.add_parser(
        "qpoly", help="exact polynomial factor of one correction term"
    )
    p.add_argument("q", type=int)
    p.add_argument(
        "--nu", type=int, required=True,
        help=f"correction order, 1 to {MAX_ORDER}",
    )
    common(p)
    p.set_defaults(func=cmd_qpoly)

    return parser


def _write(name: str, text: str) -> None:
    """Write and flush text to sys.stdout or sys.stderr, by name, so that
    a failed write raises OSError here and not at shutdown.  A closed
    stream (None) counts as a failed write.  After a failure, the
    stream's file descriptor, where it has one, is pointed at the null
    device: the bytes left in its buffer then go nowhere at the last
    flush, by ``entrypoint`` or the interpreter, which would fail again
    (the ``os.dup2`` idiom of the Python docs' note on SIGPIPE)."""
    stream = getattr(sys, name)
    if stream is None:
        raise OSError(f"{name} is closed")
    try:
        stream.write(text)
        stream.flush()
    except OSError:
        try:
            fd = stream.fileno()
        except (OSError, ValueError):  # an in-memory stream has no descriptor
            fd = None
        if fd is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        raise


def main(argv: list[str] | None = None) -> int:
    # integers are printed exactly at any size, past the interpreter's
    # digit limit for int-to-str conversion; the caller's limit is
    # restored on the way out
    old_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        try:
            for dest, limit in LIMITS.items():
                value = getattr(args, dest, 0)
                if value > limit:
                    option = "--" + dest.replace("_", "-")
                    raise ValueError(f"{option} {value} exceeds the limit of {limit}")
            text = args.func(args)
            if args.out:
                with open(args.out, "w") as out:
                    out.write(text)
            else:
                _write("stdout", text)
        except (ValueError, OverflowError, OSError) as exc:
            try:
                _write("stderr", f"error: {exc}\n")
            except OSError:  # nothing is left to report a failed stderr to
                pass
            return 2
        return 0
    finally:
        sys.set_int_max_str_digits(old_limit)


def entrypoint():
    """Run ``main`` on the command line, then end the process with its
    exit code.

    The ``extbinom`` console script and ``python -m extbinom.cli`` both
    start here.  Leaving by ``SystemExit`` would hand the process to the
    interpreter's teardown: wait for non-daemon threads, run the
    ``atexit`` callbacks, flush sys.stdout and sys.stderr, then finalise
    every module and run a last garbage collection, which reports each
    file left open with a ``ResourceWarning``.  For a short command such
    as ``coeff 4 4 2``, that takes longer than its imports and work.

    This function runs the ``atexit`` callbacks and flushes the two
    streams itself, then ends with ``os._exit``, which Python's docs
    otherwise reserve for forked children: module finalisation, the last
    collection and its ``ResourceWarning``s are dropped, and the
    operating system closes the files and frees the memory.  The CLI
    starts no thread and leaves no file open.  A flush that fails turns
    exit code 0 into 120, as in the interpreter's teardown; any other
    code stands, since ``main`` has already reported the failed write.

    Under a trace or profile function (``python -m cProfile``,
    ``python -m trace``, a debugger) or when the interpreter is to stay
    (``python -i``), it leaves by ``SystemExit`` instead, so that the
    tool still gets its turn at the end.

    Unless the caller set it, ``OPENBLAS_NUM_THREADS`` is 1 before ``main``
    can import numpy: extbinom calls no BLAS routine, and OpenBLAS's pool
    of worker threads would only spin beside numpy's import.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = main()
    except SystemExit as exc:  # argparse: 2 after a usage error, 0 after --help
        code = exc.code
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12+: cProfile uses it
    if (
        sys.gettrace() is not None
        or sys.getprofile() is not None
        or sys.flags.inspect
        or (monitoring is not None and any(map(monitoring.get_tool, range(6))))
    ):
        raise SystemExit(code)
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:  # what stdout could not take stays buffered
                code = code or 120
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
