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
runs.  A failed write, to --out or to stdout, also exits 2.

The console script and ``python -m extbinom.cli`` both run
``entrypoint``, which calls ``main`` and then ends the process without
the interpreter's teardown (see its docstring).

Each subcommand imports, when it runs, only the library functions it
calls, and ``_render`` only the module of the format it writes, so a
short command such as ``coeff`` starts without loading the rest of the
package or numpy.
"""

from __future__ import annotations

import argparse
import atexit
import math
import os
import sys
from typing import NoReturn

# Largest --order (expand, sweep) and --nu (qpoly).  Measured on a 2-vCPU
# box with Python 3.11: every correction up to order 40 builds in about
# 0.6 s at q = 8 (`expand 3 1 8 --order 40`), up to order 60 in 4.3 s.
MAX_ORDER = 40
# Largest --max-order (cumulants): `cumulants 8 --max-order 400 --oracle`
# takes about 0.4 s on the same box, 600 about 1.4 s, nearly flat in q.
MAX_CUMULANT_ORDER = 400
# the bounded options by argparse dest, checked in main before dispatch
LIMITS = {"order": MAX_ORDER, "nu": MAX_ORDER, "max_order": MAX_CUMULANT_ORDER}


def _render(args, rows: list[dict], comments=(), footer: dict | None = None) -> str:
    """Rows as CSV (comments as '#' lines) or as JSON (footer appended as
    a trailing object, Fractions as "p/q" strings).  A float cell or
    footer value that is not finite is refused with a ValueError."""
    for row in [*rows, footer or {}]:
        for key, value in row.items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{key} is not a finite number: {value!r}")
    if args.json:
        import json

        rows = rows + [footer] if footer else rows
        return json.dumps(rows, indent=2, default=str) + "\n"
    import csv
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    # csv writes floats by repr, the rest by str (Fraction as "p/q")
    for row in rows:
        writer.writerow(
            ("true" if v else "false") if isinstance(v, bool) else v
            for v in row.values()
        )
    for comment in comments:
        buf.write(f"# {comment}\n")
    return buf.getvalue()


def cmd_coeff(args) -> str:
    from extbinom.exact import coefficient

    value = coefficient(args.n, args.k, args.q)
    row = {"n": args.n, "k": args.k, "q": args.q, "coefficient": value}
    return _render(args, [row]) if args.json else f"{value}\n"


def cmd_row(args) -> str:
    from extbinom.exact import compute_row

    coeffs = compute_row(args.n, args.q).coeffs
    return _render(args, [{"k": k, "coefficient": c} for k, c in enumerate(coeffs)])


def cmd_expand(args) -> str:
    from extbinom.edgeworth import (
        approximate_scaled,
        gaussian,
        standardize,
        uniform_correction,
    )
    from extbinom.harness import exact_scaled_value

    n, k, q, order = args.n, args.k, args.q, args.order
    exact = exact_scaled_value(n, k, q)
    approx = approximate_scaled(n, k, q, order)
    x = standardize(n, k, q)
    if args.terms:
        rows = [{"term": "x", "value": x}, {"term": "gaussian", "value": gaussian(x)}]
        for v in range(1, order + 1):
            rows.append(
                {"term": f"nu={v}", "value": uniform_correction(v, q)(x) / n**v}
            )
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
    from extbinom.cumulants import cumulants_from_moments, cumulants_up_to

    gammas = cumulants_up_to(args.max_order, args.q).gammas
    rows = [{"k": k, "gamma": gamma} for k, gamma in enumerate(gammas, 1)]
    if args.oracle:
        oracle = cumulants_from_moments(args.max_order, args.q).gammas
        for row, gamma in zip(rows, oracle):
            row["oracle_gamma"] = gamma
            row["match"] = row["gamma"] == gamma
    return _render(args, rows)


def cmd_qpoly(args) -> str:
    from extbinom.edgeworth import uniform_correction

    poly = uniform_correction(args.nu, args.q).poly
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


def main(argv: list[str] | None = None) -> int:
    # integers are printed exactly at any size, past the interpreter's
    # digit limit for int-to-str conversion, where it has one; the
    # caller's limit is restored on the way out
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    old_limit = get_limit() if get_limit is not None else None
    if old_limit is not None:
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
                from pathlib import Path

                Path(args.out).write_text(text)
            else:
                # flushed here, so that a failed write is reported below
                # and not at shutdown
                sys.stdout.write(text)
                sys.stdout.flush()
        except (ValueError, OverflowError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        return 0
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


def entrypoint() -> NoReturn:
    """Run ``main`` on the command line, then end the process with its
    exit code.

    The ``extbinom`` console script and ``python -m extbinom.cli`` both
    start here.  Leaving by ``SystemExit`` would hand the process to the
    interpreter's teardown: wait for non-daemon threads, run the
    ``atexit`` callbacks, flush sys.stdout and sys.stderr, then finalise
    every module and run a last garbage collection, which reports each
    file left open with a ``ResourceWarning``.  ``coeff 4 4 2`` spent
    about 15 ms of its 0.1 s there (2-vCPU box, Python 3.11).

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
    """
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
