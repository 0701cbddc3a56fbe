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
runs.  ``cumulants --oracle`` is also refused before any work when its
estimated cost, from --max-order and the bit length of q + 1, is above
MAX_ORACLE_COST, ``cumulants`` when the estimated cost of printing its
cumulants, from the same two, is above MAX_CUMULANT_COST, ``qpoly`` and
``expand`` when the estimated cost of their correction polynomials, from
--nu or --order and the same bit length, is above MAX_CORRECTION_COST,
and ``row`` when its estimated cost, from n and q, is above
MAX_ROW_COST.  A failed write, to --out or to stdout, or a closed
stdout, also exits 2, and so does an error whose ``error:`` line stderr
cannot take.

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
# The oracle's time also grows with the digits of q, which
# MAX_ORACLE_COST bounds.
MAX_CUMULANT_ORDER = 400
# Largest estimated cost K**3 * b**1.5 of `cumulants --oracle`, K the
# --max-order and b = (q + 1).bit_length(): the moment recursion's k-th
# step sums k products of ints of about k*b bits.  In process on the same
# box, gammas_from_moments took 1.0e-10 to 2.4e-10 s per unit over K 12
# to 400 and b 8 to 1000, and 4.1 s at K = 400, b = 45.  Whole commands
# at the limit, from K = 400 at q = 32766 to K = 12 at b = 17498, took
# 0.5 to 0.9 s (best of 3).
MAX_ORACLE_COST = 4 * 10**9
# Largest estimated cost L * (D + 500)**2 of `row`, L = n*q + 1 the
# coefficients and D = n*log10(q + 1) the digits of the central one:
# printing a coefficient costs about D**2, since int-to-str is quadratic
# on Python 3.11, and building and writing a line about 1000*D + 250000
# more.  Whole commands on the same box with Python 3.11.7 took about
# 8.7e-12 s per unit (within 20%) over 22 rows from `row 224 2` to `row 1
# 1000000` and `row 100 10000`; at the limit, from `row 5355 2` and `row
# 9256 1` to `row 27 10000` and `row 1 391199`, 0.8 to 1.1 s.
MAX_ROW_COST = 10**11
# Largest estimated cost, the sum of (D + 500)**2 over the even k up to the
# --max-order K, of `cumulants` without --oracle, D = k*b*log10(2) the
# digits of gamma_k and b = (q + 1).bit_length(): the form of MAX_ROW_COST,
# since printing gamma_k costs about D**2, but a unit costs more here.
# Whole commands on the same box with Python 3.11.7 took 0.15 s plus about
# 1.4e-11 s per unit (within 30%, and within 18% but for K = 400 under
# 0.6 s) over 22 commands of 0.3 to 3.5 s, from K = 25 at b = 21113 to
# K = 400 at b = 308.
MAX_CUMULANT_COST = 6 * 10**10
# Largest estimated cost A * b**2 + nu**4.5 * b**1.25 of the correction
# polynomials that `qpoly` and `expand` build, nu the --nu or --order and
# b = (q + 1).bit_length(): the series of truncated powers, whose products
# grow with nu and b, costs about nu**4.5 * b**1.25, and the assembly, whose
# gcds and, in `qpoly`, int-to-str conversions are quadratic in numbers of
# about nu*b bits, A * b**2, with A = nu**3 for `qpoly`, which assembles
# one order, and A = nu**4 / 4 for `expand`, which assembles every order
# up to nu.
# Whole commands on the same box with Python 3.11.7 took 0.13 s plus about
# 4.3e-11 s per unit (within 30%) over 58 commands of 0.3 to 3.5 s, from
# `qpoly --nu 1` at b = 221377 to `expand --order 40` at b = 308.
MAX_CORRECTION_COST = 2 * 10**10
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
    from extbinom._recurrence import _check_nq, row

    n, q = _check_nq(args.n, args.q)
    lines = n * q + 1
    # the cost is at least lines * 500**2: past the first test, n*q fits a float
    if (lines * 500**2 > MAX_ROW_COST
            or lines * (n * math.log10(q + 1) + 500) ** 2 > MAX_ROW_COST):
        raise ValueError(
            f"row {n} {q} exceeds the cost limit of {MAX_ROW_COST} (L * (D + 500)**2"
            " for L = n*q + 1 coefficients of D = n*log10(q + 1) digits)")
    coeffs = row(n, q)
    return _render(args, [{"k": k, "coefficient": c} for k, c in enumerate(coeffs)])


def _check_correction_cost(option: str, nu: int, q: int, every_order: bool) -> None:
    """Refuse, before any work, to build the correction of order nu at q,
    and with every_order those of the orders below it too, when the
    estimate is above MAX_CORRECTION_COST."""
    nu, bits = max(nu, 0), (max(q, 0) + 1).bit_length()  # the builders refuse these
    assembly, assembled = ("nu**4 / 4", nu**4 / 4) if every_order else ("nu**3", nu**3)
    if assembled * bits**2 + nu**4.5 * bits**1.25 > MAX_CORRECTION_COST:
        raise ValueError(
            f"{option} {nu} at {bits} bits of q + 1 exceeds the cost limit of "
            f"{MAX_CORRECTION_COST} ({assembly} * b**2 + nu**4.5 * b**1.25)")


def cmd_expand(args) -> str:
    _check_correction_cost("--order", args.order, args.q, every_order=True)
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
    bits = (max(args.q, 0) + 1).bit_length()  # gammas_up_to refuses a q below 1
    if args.oracle and args.max_order**3 * bits**1.5 > MAX_ORACLE_COST:
        raise ValueError(
            f"--oracle at --max-order {args.max_order} and {bits} bits of q + 1 "
            f"exceeds the cost limit of {MAX_ORACLE_COST} (K**3 * b**1.5)")
    digits = bits * math.log10(2)  # per order: gamma_k has about k * digits
    cost = sum((k * digits + 500) ** 2 for k in range(2, args.max_order + 1, 2))
    if cost > MAX_CUMULANT_COST:
        raise ValueError(
            f"--max-order {args.max_order} at {bits} bits of q + 1 exceeds the cost limit"
            f" of {MAX_CUMULANT_COST} ((D + 500)**2 summed over the even k <= K,"
            " for D = k*b*log10(2) digits)")
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
    _check_correction_cost("--nu", args.nu, args.q, every_order=False)
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

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
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
    common(p)
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
