"""Command-line front end.

Subcommands expose the exact core (coeff, row), the approximation
(expand, qpoly, cumulants) and the verification harness (sweep) as
batch commands.  Tabular output is CSV by default (comma separated, LF
line endings, header row, comment lines prefixed '#'); --json switches
to a JSON array of objects.  Rationals are rendered exactly as "p/q",
floats with full round-trip precision.  Exit code 0 on success, 2 on a
usage or domain error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

from extbinom.cumulants import cumulants_from_moments, cumulants_up_to
from extbinom.edgeworth import (
    approximate_scaled,
    gaussian,
    standardize,
    uniform_correction,
)
from extbinom.exact import coefficient, compute_row
from extbinom.harness import exact_scaled_value, rate_sweep


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)  # int, Fraction ("p/q"), str


def _json_value(value):
    if isinstance(value, Fraction):
        return str(value)
    return value


def _to_csv(rows: list[dict], comments: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(rows[0].keys())
    for row in rows:
        writer.writerow(_csv_cell(v) for v in row.values())
    for comment in comments:
        buf.write(f"# {comment}\n")
    return buf.getvalue()


def _to_json(rows: list[dict]) -> str:
    payload = [{k: _json_value(v) for k, v in row.items()} for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def _write(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(args, rows: list[dict], comments: list[str] | None = None,
          footer: dict | None = None) -> None:
    """Emit rows as CSV (comments as '#' lines) or JSON (footer appended
    as a trailing object in the array)."""
    if args.json:
        if footer:
            rows = rows + [footer]
        _write(_to_json(rows), args.out)
    else:
        _write(_to_csv(rows, comments or []), args.out)


def cmd_coeff(args) -> None:
    value = coefficient(args.n, args.k, args.q)
    if args.json:
        _emit(args, [{"n": args.n, "k": args.k, "q": args.q, "coefficient": value}])
    else:
        _write(f"{value}\n", args.out)


def cmd_row(args) -> None:
    row = compute_row(args.n, args.q)
    rows = [{"k": k, "coefficient": c} for k, c in enumerate(row.coeffs)]
    _emit(args, rows)


def cmd_expand(args) -> None:
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
    _emit(args, rows)


def _sweep_table(report) -> tuple[list[dict], list[str]]:
    """A sweep report's CSV rows and its slope footer comment."""
    rows = [
        {"n": r.n, "sup_error": r.sup_error, "argmax_k": r.argmax_k}
        for r in report.records
    ]
    comments = [
        f"fitted_slope={report.fitted_slope!r},stderr={report.slope_stderr!r}"
    ]
    return rows, comments


def cmd_sweep(args) -> None:
    report = rate_sweep(args.q, args.order, args.n_list)
    rows, comments = _sweep_table(report)
    footer = {
        "fitted_slope": report.fitted_slope,
        "slope_stderr": report.slope_stderr,
    }
    _emit(args, rows, comments=comments, footer=footer)


def cmd_cumulants(args) -> None:
    vec = cumulants_up_to(args.max_order, args.q)
    if args.oracle:
        oracle = cumulants_from_moments(args.max_order, args.q)
        rows = [
            {
                "k": k,
                "gamma": vec.gamma(k),
                "oracle_gamma": oracle.gamma(k),
                "match": vec.gamma(k) == oracle.gamma(k),
            }
            for k in range(1, args.max_order + 1)
        ]
    else:
        rows = [
            {"k": k, "gamma": vec.gamma(k)} for k in range(1, args.max_order + 1)
        ]
    _emit(args, rows)


def cmd_qpoly(args) -> None:
    poly = uniform_correction(args.nu, args.q).poly
    rows = [
        {"power": i, "coefficient": c}
        for i, c in enumerate(poly.coeffs)
        if c != 0
    ]
    _emit(args, rows)


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
    p.add_argument("--csv", action="store_true", help="emit CSV (the default)")
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
        help="number of correction terms (0 = plain normal approximation)",
    )
    p.add_argument(
        "--terms", action="store_true",
        help="one row per term: x, gaussian, each correction, total",
    )
    common(p)
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("sweep", help="sup-error sweep over n with a fitted decay rate")
    p.add_argument("q", type=int)
    p.add_argument("--order", type=int, default=0, help="number of correction terms")
    p.add_argument(
        "--n-list", type=_n_list, default=[50, 100, 200, 400],
        metavar="N1,N2,...", help="comma-separated n values (at least 3, increasing)",
    )
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("cumulants", help="exact cumulants of the uniform on {0..q}")
    p.add_argument("q", type=int)
    p.add_argument("--max-order", type=int, default=8, metavar="K")
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
    p.add_argument("--nu", type=int, required=True, help="correction order (>= 1)")
    common(p)
    p.set_defaults(func=cmd_qpoly)

    return parser


def main(argv: list[str] | None = None) -> int:
    # integers are printed exactly at any size, past the interpreter's
    # digit limit for int-to-str conversion, where it has one
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is not None:
        set_limit(0)
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
