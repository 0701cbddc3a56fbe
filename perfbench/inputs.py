"""Seeded inputs for the four benchmark workloads.

Stdlib only.  ``make(workload, seed, smoke)`` returns the list of
operations one run performs, each a plain dict; the same (workload,
seed, smoke) always gives the same list.  The seed varies query
positions, visiting order and CLI argument values; the size classes
are fixed here, so runs with different seeds do comparable work.  See
README.md in this directory for why each workload and size was chosen.
"""

from __future__ import annotations

import random

WORKLOADS = ("rows", "sweep", "corrections", "cli")

# rows: three cold builds of large rows, a stream of point queries on
# them, then two shuffled passes over more distinct small rows than the
# 64-entry row cache holds, so the second pass both hits and evicts.
# Building a row costs about n*n*q big-integer additions; the small rows
# all have n*n*q near SMALL_ROW_WORK, so every miss costs about the same
# and the latency quantiles do not depend on which rows the shuffle
# makes miss.
BIG_ROWS = ((1500, 2), (1000, 3), (600, 8))
QUERY_OPS = 180
QUERIES_PER_OP = 24
POSITIONS_PER_ROW = 12
SMALL_ROW_WORK = 30000
SMALL_ROWS = tuple(
    (round((SMALL_ROW_WORK / q) ** 0.5) + dn, q)
    for q in range(1, 13)
    for dn in range(-3, 4)
)

# sweep: the paper's convergence table.
SWEEP_QS = tuple(range(1, 9))
SWEEP_ORDERS = (0, 1, 2, 3)
SWEEP_NS = (50, 100, 200, 400)

# corrections: both construction routes; the general one up to v = 11.
CORRECTION_QS = (2, 3, 8)
CORRECTION_MAX_V = 14
GENERAL_MAX_V = 11

# cli: per call, the row work n*n*q of the rows it builds is fixed, so
# the seed changes argument values but not the cost of a call.
CLI_COEFF_WORK = 200_000
CLI_ROW_WORK = 100_000
CLI_EXPAND_WORK = 60_000

SMOKE = {
    "big_rows": ((60, 2), (40, 3)),
    "query_ops": 8,
    "queries_per_op": 2,
    "positions_per_row": 2,
    "small_rows": tuple((n, q) for n in (10, 20) for q in (1, 2, 3)),
    "sweep_qs": (1, 2),
    "sweep_orders": (0, 1),
    "sweep_ns": (20, 40, 80),
    "correction_qs": (2, 3),
    "correction_max_v": 4,
}


def make(workload: str, seed: int, smoke: bool = False) -> list[dict]:
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng, smoke)


def _rows(rng: random.Random, smoke: bool) -> list[dict]:
    big = SMOKE["big_rows"] if smoke else BIG_ROWS
    n_queries = SMOKE["query_ops"] if smoke else QUERY_OPS
    per_op = SMOKE["queries_per_op"] if smoke else QUERIES_PER_OP
    per_row = SMOKE["positions_per_row"] if smoke else POSITIONS_PER_ROW
    small = SMOKE["small_rows"] if smoke else SMALL_ROWS
    # query positions come from the bulk of each row, where the values
    # are large; a few positions per row keep the oracle cheap
    positions = {
        (n, q): [rng.randint(n * q // 4, 3 * n * q // 4) for _ in range(per_row)]
        for n, q in big
    }
    ops = [
        {"kind": "build", "n": n, "q": q, "ks": positions[(n, q)][:2]}
        for n, q in big
    ]
    for i in range(n_queries):
        n, q = big[i % len(big)]  # each row gets the same share of queries
        ks = [rng.choice(positions[(n, q)]) for _ in range(per_op)]
        ops.append({"kind": "query", "n": n, "q": q, "ks": ks})
    for _ in range(2):
        order = list(small)
        rng.shuffle(order)
        ops.extend(
            {"kind": "build", "n": n, "q": q, "ks": [rng.randint(0, n * q)]}
            for n, q in order
        )
    return ops


def _sweep(rng: random.Random, smoke: bool) -> list[dict]:
    qs = list(SMOKE["sweep_qs"] if smoke else SWEEP_QS)
    orders = SMOKE["sweep_orders"] if smoke else SWEEP_ORDERS
    ns = list(SMOKE["sweep_ns"] if smoke else SWEEP_NS)
    # The rows of each q are built by their own operations before its
    # sweeps, so every sweep finds them cached and no latency quantile
    # sits on the edge between sweeps that build rows and sweeps that
    # do not.  The seed orders the q values and the checked positions.
    rng.shuffle(qs)
    ops = []
    for q in qs:
        ops += [{"kind": "build", "n": n, "q": q, "ks": [rng.randint(0, n * q)]}
                for n in ns]
        ops += [{"kind": "sweep", "q": q, "order": order, "ns": ns} for order in orders]
    return ops


def _corrections(rng: random.Random, smoke: bool) -> list[dict]:
    qs = list(SMOKE["correction_qs"] if smoke else CORRECTION_QS)
    top = SMOKE["correction_max_v"] if smoke else CORRECTION_MAX_V
    # v ascends within each q, as a caller adding terms one at a time
    # would; each v then builds the same two new Hermite polynomials
    # whatever the q order, so the latency mix is the same for every seed
    rng.shuffle(qs)
    return [
        {"kind": "correction", "v": v, "q": q, "general": v <= GENERAL_MAX_V}
        for q in qs
        for v in range(1, top + 1)
    ]


def _cli(rng: random.Random, smoke: bool) -> list[dict]:
    """One call per subcommand and output format, with argument values
    drawn from fixed size classes."""
    if smoke:
        return [
            {"kind": "cli", "cmd": "coeff", "n": 6, "k": 5, "q": 2, "json": False},
            {"kind": "cli", "cmd": "row", "n": 5, "q": 2, "json": True},
            {"kind": "cli", "cmd": "expand", "n": 20, "k": 18, "q": 2,
             "order": 1, "terms": True, "json": False},
            {"kind": "cli", "cmd": "sweep", "q": 1, "order": 0,
             "ns": [20, 40, 80], "json": True},
            {"kind": "cli", "cmd": "cumulants", "q": 2, "max_order": 4,
             "oracle": True, "json": False},
            {"kind": "cli", "cmd": "qpoly", "q": 2, "nu": 2, "json": True},
        ]
    ops = []
    for as_json in (False, True):
        n, q = _row_size(rng, CLI_COEFF_WORK, (2, 3, 4))
        ops.append({"kind": "cli", "cmd": "coeff", "n": n, "q": q,
                    "k": rng.randint(n * q // 4, 3 * n * q // 4), "json": as_json})
        n, q = _row_size(rng, CLI_ROW_WORK, (2, 3))
        ops.append({"kind": "cli", "cmd": "row", "n": n, "q": q, "json": as_json})
        n, q = _row_size(rng, CLI_EXPAND_WORK, (2, 3))
        ops.append({"kind": "cli", "cmd": "expand", "n": n, "q": q,
                    "k": rng.randint(n * q // 4, 3 * n * q // 4),
                    "order": rng.randint(1, 3), "terms": as_json, "json": as_json})
        ops.append({"kind": "cli", "cmd": "sweep", "q": rng.choice((2, 3)),
                    "order": rng.choice((1, 2)), "ns": [50, 100, 200], "json": as_json})
        ops.append({"kind": "cli", "cmd": "cumulants", "q": rng.randint(2, 8),
                    "max_order": rng.randint(6, 12), "oracle": True, "json": as_json})
        ops.append({"kind": "cli", "cmd": "qpoly", "q": rng.randint(3, 8),
                    "nu": rng.choice((5, 6)), "json": as_json})
    rng.shuffle(ops)
    return ops


_BUILDERS = {
    "rows": _rows,
    "sweep": _sweep,
    "corrections": _corrections,
    "cli": _cli,
}


def _row_size(rng: random.Random, work: int, qs) -> tuple[int, int]:
    """A row (n, q) with n*n*q within a few percent of work."""
    q = rng.choice(qs)
    return round((work / q) ** 0.5) + rng.randint(-5, 5), q


def cli_argv(op: dict) -> list[str]:
    """Command-line arguments for one generated CLI operation."""
    cmd = op["cmd"]
    if cmd == "coeff":
        argv = [cmd, str(op["n"]), str(op["k"]), str(op["q"])]
    elif cmd == "row":
        argv = [cmd, str(op["n"]), str(op["q"])]
    elif cmd == "expand":
        argv = [cmd, str(op["n"]), str(op["k"]), str(op["q"]),
                "--order", str(op["order"])]
        if op["terms"]:
            argv.append("--terms")
    elif cmd == "sweep":
        argv = [cmd, str(op["q"]), "--order", str(op["order"]),
                "--n-list", ",".join(map(str, op["ns"]))]
    elif cmd == "cumulants":
        argv = [cmd, str(op["q"]), "--max-order", str(op["max_order"])]
        if op["oracle"]:
            argv.append("--oracle")
    elif cmd == "qpoly":
        argv = [cmd, str(op["q"]), "--nu", str(op["nu"])]
    else:
        raise ValueError(f"unknown CLI command {cmd!r}")
    if op["json"]:
        argv.append("--json")
    return argv
