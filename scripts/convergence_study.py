#!/usr/bin/env python3
"""Sup-error convergence study.

Measures the uniform (sup over k) error of the Gaussian-plus-corrections
approximation against the exact rows for a grid of (q, order) pairs,
fits the empirical decay slope, and prints one summary table.
"""

from __future__ import annotations

import argparse

from extbinom import rate_sweep


def parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in text.split(",") if p.strip())


def run(qs: tuple[int, ...], orders: tuple[int, ...], n_list: tuple[int, ...]) -> None:
    print(f"{'q':>3} {'order':>5} {'slope':>9} {'stderr':>8}  sup_error by n {n_list}")
    for q in qs:
        for order in orders:
            report = rate_sweep(q, order, list(n_list))
            errors = " ".join(f"{r.sup_error:.3e}" for r in report.records)
            print(
                f"{q:>3} {order:>5} {report.fitted_slope:>9.4f} "
                f"{report.slope_stderr:>8.4f}  {errors}"
            )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qs", type=parse_ints, default=(1, 2, 3))
    parser.add_argument("--orders", type=parse_ints, default=(0, 1, 2))
    parser.add_argument("--n-list", type=parse_ints, default=(50, 100, 200, 400))
    args = parser.parse_args()
    run(args.qs, args.orders, args.n_list)


if __name__ == "__main__":
    main()
