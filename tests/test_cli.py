"""CLI surface: command output, formats, exit codes, round trips."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import shlex
import subprocess
import sys
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import extbinom
from extbinom import _recurrence, coefficient, compute_row, harness, special
from extbinom.cli import (MAX_CORRECTION_COST, MAX_CUMULANT_COST, MAX_CUMULANT_ORDER,
                          MAX_ORACLE_COST, MAX_ORDER, MAX_ROW_COST, main)

SQRT_2PI = math.sqrt(2 * math.pi)
ROOT = Path(__file__).resolve().parents[1]
# the directory holding the extbinom under test: the checkout's src, or
# site-packages when the suite runs against an installed package
PACKAGE_PARENT = Path(extbinom.__file__).resolve().parents[1]


def run_python(*argv):
    """Run a fresh interpreter that imports the extbinom under test."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_PARENT)}
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_int_digit_limit():
    """Lift this interpreter's int/str digit limit, so the test itself
    can render and parse integers of any size."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


def run_captured(argv):
    """main's exit code, stdout and stderr, without pytest's function-scoped
    capture fixtures, so that hypothesis can call it repeatedly."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def parse_csv(text):
    data_lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(data_lines))))
    return rows, comments


class TestCoeff:
    def test_plain(self, capsys):
        code, out, _ = run(capsys, "coeff", "4", "4", "2")
        assert code == 0
        assert out == "19\n"

    def test_binomial(self, capsys):
        assert run(capsys, "coeff", "10", "3", "1")[1] == "120\n"

    def test_out_of_range(self, capsys):
        assert run(capsys, "coeff", "3", "-1", "4")[1] == "0\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "coeff", "4", "4", "2", "--json")
        assert code == 0
        assert json.loads(out) == [{"n": 4, "k": 4, "q": 2, "coefficient": 19}]

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run(capsys, "coeff", "0", "1", "2")
        assert code == 2
        assert "error" in err

    def test_unwritable_out_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.csv"
        code, out, err = run(capsys, "coeff", "1", "1", "1", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_failed_stdout_flush_exit_2(self):
        class FullStdout(io.StringIO):
            def flush(self):
                raise OSError(28, "No space left on device")

        err = io.StringIO()
        with redirect_stdout(FullStdout()), redirect_stderr(err):
            assert main(["coeff", "4", "4", "2"]) == 2
        assert err.getvalue() == "error: [Errno 28] No space left on device\n"

    def test_closed_stdout_exit_2(self):
        err = io.StringIO()
        with redirect_stdout(None), redirect_stderr(err):
            assert main(["coeff", "4", "4", "2"]) == 2
        assert err.getvalue() == "error: stdout is closed\n"

    def test_closed_stdout_and_stderr_exit_2(self):
        with redirect_stdout(None), redirect_stderr(None):
            assert main(["coeff", "4", "4", "2"]) == 2

    # 10000 * 2 gives a coefficient of 4770 digits, past the default limit
    # of 4300 digits for int-to-str conversion; the CLI runs in a fresh
    # interpreter so that it starts with that limit in force.
    def test_beyond_int_digit_limit(self, no_int_digit_limit):
        out = run_python("-m", "extbinom.cli", "coeff", "10000", "10000", "2").stdout
        assert out == f"{coefficient(10000, 10000, 2)}\n"

    def test_beyond_int_digit_limit_json(self, no_int_digit_limit):
        proc = run_python(
            "-m", "extbinom.cli", "coeff", "10000", "10000", "2", "--json"
        )
        value = coefficient(10000, 10000, 2)
        assert json.loads(proc.stdout) == [
            {"n": 10000, "k": 10000, "q": 2, "coefficient": value}
        ]


class TestRow:
    def test_csv(self, capsys):
        code, out, _ = run(capsys, "row", "2", "2")
        assert code == 0
        assert out.splitlines() == [
            "k,coefficient",
            "0,1",
            "1,2",
            "2,3",
            "3,2",
            "4,1",
        ]

    def test_all_ones(self, capsys):
        _, out, _ = run(capsys, "row", "1", "3")
        rows, _ = parse_csv(out)
        assert [r["coefficient"] for r in rows] == ["1", "1", "1", "1"]

    def test_zero_n_exit_2(self, capsys):
        assert run(capsys, "row", "0", "2")[0] == 2

    def test_json_large_integers_exact(self, capsys):
        _, out, _ = run(capsys, "row", "120", "2", "--json")
        rows = json.loads(out)
        assert sum(r["coefficient"] for r in rows) == 3**120

    def test_csv_switch_is_a_usage_error(self):
        # CSV is the default of every command, which none takes a switch for
        code, out, err = run_captured(["row", "2", "2", "--csv"])
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --csv" in err


class TestExpand:
    def test_gaussian_peak(self, capsys):
        _, out, _ = run(capsys, "expand", "100", "100", "2", "--order", "0")
        rows, _ = parse_csv(out)
        assert float(rows[0]["approximation"]) == pytest.approx(1 / SQRT_2PI, rel=1e-14)
        assert float(rows[0]["x"]) == 0.0

    def test_first_order_central(self, capsys):
        _, out, _ = run(capsys, "expand", "100", "100", "2", "--order", "1")
        rows, _ = parse_csv(out)
        expected = (1 / SQRT_2PI) * (1 - 0.001875)
        assert float(rows[0]["approximation"]) == pytest.approx(expected, rel=1e-13)

    def test_terms_breakdown(self, capsys):
        _, out, _ = run(capsys, "expand", "50", "30", "1", "--order", "1", "--terms")
        rows, _ = parse_csv(out)
        by_term = {r["term"]: float(r["value"]) for r in rows}
        assert set(by_term) == {"x", "gaussian", "nu=1", "total", "exact", "abs_error"}
        assert by_term["total"] == pytest.approx(
            by_term["gaussian"] + by_term["nu=1"], rel=1e-12
        )
        assert by_term["abs_error"] == pytest.approx(
            abs(by_term["exact"] - by_term["total"]), abs=1e-15
        )

    def test_k_beyond_float_range_exit_2(self, capsys):
        # standardizing k = 10**400 overflows the float conversion
        code, out, err = run(capsys, "expand", "5", str(10**400), "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestSweep:
    def test_csv_footer_and_slope(self, capsys):
        code, out, _ = run(capsys, "sweep", "2", "--order", "0", "--n-list", "20,40,80")
        assert code == 0
        rows, comments = parse_csv(out)
        assert [r["n"] for r in rows] == ["20", "40", "80"]
        assert len(comments) == 1
        assert comments[0].startswith("# fitted_slope=")
        slope = float(comments[0].split("fitted_slope=")[1].split(",")[0])
        assert slope == pytest.approx(-1.0, abs=0.3)

    def test_json_mirror(self, capsys):
        _, out, _ = run(capsys, "sweep", "2", "--order", "0", "--n-list", "20,40,80", "--json")
        payload = json.loads(out)
        assert len(payload) == 4
        assert {"n", "sup_error", "argmax_k"} <= set(payload[0])
        assert {"fitted_slope", "slope_stderr"} == set(payload[-1])

    def test_too_few_points_exit_2(self, capsys):
        assert run(capsys, "sweep", "1", "--order", "0", "--n-list", "10")[0] == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_sup_error_exit_2(self, capsys, monkeypatch, bad):
        monkeypatch.setattr(
            harness, "_sup_errors",
            lambda ns, q, order: [(bad if n == 40 else 1e-3, 0) for n in ns],
        )
        code, out, err = run(capsys, "sweep", "2", "--n-list", "20,40,80")
        assert (code, out) == (2, "")
        assert err.startswith("error: sup_error at n=40 is ")

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "2", "--n-list", "20,40,80", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        rows, comments = parse_csv(path.read_text())
        assert len(rows) == 3 and len(comments) == 1

    def test_study_script_matches_rate_sweep(self):
        proc = run_python(
            str(ROOT / "scripts" / "convergence_study.py"), "--qs", "2",
            "--orders", "1", "--n-list", "50,100,200",
        )
        report = harness.rate_sweep(2, 1, [50, 100, 200])
        assert proc.stdout.splitlines()[1].split() == [
            "2", "1", f"{report.fitted_slope:.4f}", f"{report.slope_stderr:.4f}",
            *(f"{r.sup_error:.3e}" for r in report.records),
        ]

    def test_central_ratio_study(self):
        proc = run_python(
            str(ROOT / "scripts" / "central_ratio_study.py"),
            "--q", "2", "--n-start", "25", "--doublings", "3",
        )
        rows = [line.split() for line in proc.stdout.splitlines()[1:]]
        assert [row[0] for row in rows] == ["25", "50", "100"]
        for row in rows:
            assert abs(float(row[-1]) - 0.1875) < 1e-3


class TestCumulants:
    def test_mean_row(self, capsys):
        _, out, _ = run(capsys, "cumulants", "5", "--max-order", "1")
        assert out.splitlines() == ["k,gamma", "1,5/2"]

    def test_odd_zero_row(self, capsys):
        _, out, _ = run(capsys, "cumulants", "1", "--max-order", "3")
        rows, _ = parse_csv(out)
        assert rows[2] == {"k": "3", "gamma": "0"}

    def test_oracle_matches(self, capsys):
        _, out, _ = run(capsys, "cumulants", "2", "--max-order", "4", "--oracle")
        rows, _ = parse_csv(out)
        assert all(r["match"] == "true" for r in rows)
        assert all(r["gamma"] == r["oracle_gamma"] for r in rows)

    def test_domain_error(self, capsys):
        assert run(capsys, "cumulants", "0")[0] == 2


class TestQpoly:
    def test_q1_first_order(self, capsys):
        _, out, _ = run(capsys, "qpoly", "1", "--nu", "1")
        assert out.splitlines() == ["power,coefficient", "0,-1/4", "2,1/2", "4,-1/12"]

    def test_q2_leading_coefficient(self, capsys):
        _, out, _ = run(capsys, "qpoly", "2", "--nu", "1")
        rows, _ = parse_csv(out)
        assert {"power": "4", "coefficient": "-1/16"} in rows

    def test_nu_zero_exit_2(self, capsys):
        assert run(capsys, "qpoly", "3", "--nu", "0")[0] == 2


class WorkStarted(Exception):
    pass


# the library functions that start a bounded command's work, by the
# module that defines them: each cmd_* imports them from there when it
# runs, so a patch there is what the command calls
WORK = {
    _recurrence: ("row",),
    harness: ("rate_sweep",),
    special: ("approximate_scaled", "exact_scaled_value", "gammas_up_to",
              "uniform_polynomial"),
}


class TestOrderLimits:
    """Each order option is checked against its limit before any work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise WorkStarted
        for module, names in WORK.items():
            for name in names:
                monkeypatch.setattr(module, name, refuse)

    @pytest.mark.parametrize(
        "template,option,limit",
        [
            ("expand 3 1 2 --order {}", "--order", MAX_ORDER),
            ("expand 3 1 2 --terms --order {} --json", "--order", MAX_ORDER),
            ("sweep 2 --order {}", "--order", MAX_ORDER),
            ("qpoly 3 --nu {}", "--nu", MAX_ORDER),
            ("cumulants 8 --max-order {} --oracle", "--max-order", MAX_CUMULANT_ORDER),
        ],
        ids=["expand", "expand-terms-json", "sweep", "qpoly", "cumulants"],
    )
    def test_refused_above_limit(self, capsys, no_work, template, option, limit):
        with pytest.raises(WorkStarted):
            main(template.format(limit).split())
        code, out, err = run(capsys, *template.format(limit + 1).split())
        assert (code, out) == (2, "")
        assert err == f"error: {option} {limit + 1} exceeds the limit of {limit}\n"

    @pytest.mark.parametrize(
        "max_order,allowed,refused,bits",
        [(400, 8, 10**18, 60), (400, 2**15 - 2, 2**15 - 1, 16),
         (200, 2**62 - 2, 2**62 - 1, 63), (12, 2**17498 - 2, 2**17498 - 1, 17499)],
        ids=["readme", "order-400", "order-200", "order-12"],
    )
    def test_oracle_refused_above_cost(self, capsys, no_int_digit_limit, no_work,
                                       max_order, allowed, refused, bits):
        def argv(q):
            return ["cumulants", str(q), "--max-order", str(max_order), "--oracle"]

        with pytest.raises(WorkStarted):
            main(argv(allowed))
        code, out, err = run(capsys, *argv(refused))
        assert (code, out) == (2, "")
        assert err == (f"error: --oracle at --max-order {max_order} and {bits} bits"
                       f" of q + 1 exceeds the cost limit of {MAX_ORACLE_COST}"
                       " (K**3 * b**1.5)\n")
        with pytest.raises(WorkStarted):  # the same q without the oracle runs
            main(argv(refused)[:-1])

    @pytest.mark.parametrize(
        "allowed,refused",
        [((5355, 2), (5356, 2)), ((9256, 1), (9257, 1)), ((2058, 8), (2059, 8)),
         ((27, 10000), (28, 10000)), ((1, 391199), (1, 391200)),
         ((5355, 2), (20000, 2)), ((5355, 2), (10**400, 2)), ((1, 391199), (1, 10**400))],
        ids=["q2", "q1", "q8", "q10000", "n1", "found-20000", "huge-n", "huge-q"],
    )
    @pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
    def test_row_refused_above_cost(self, capsys, no_int_digit_limit, no_work,
                                    allowed, refused, as_json):
        def argv(n, q):
            return ["row", str(n), str(q), *(["--json"] if as_json else [])]

        with pytest.raises(WorkStarted):
            main(argv(*allowed))
        code, out, err = run(capsys, *argv(*refused))
        assert (code, out) == (2, "")
        assert err == (f"error: row {refused[0]} {refused[1]} exceeds the cost limit of"
                       f" {MAX_ROW_COST} (L * (D + 500)**2 for L = n*q + 1 coefficients"
                       " of D = n*log10(q + 1) digits)\n")

    @pytest.mark.parametrize(
        "template,allowed,refused",
        [("qpoly {} --nu 40", 2**249 - 2, 2**249 - 1),
         ("qpoly {} --nu 8 --json", 2**6150 - 2, 2**6150 - 1),
         ("qpoly {} --nu 1", 2**141411 - 2, 2**141411 - 1),
         ("qpoly {} --nu 40", 10**18, 10**100),
         ("qpoly {} --nu 40", 10**18, 10**400),
         ("expand 3 1 {} --order 40", 2**138 - 2, 2**138 - 1),
         ("expand 3 1 {} --order 20 --terms --json", 2**663 - 2, 2**663 - 1),
         ("expand 3 1 {} --order 40", 10**18, 10**100),
         ("expand 3 1 {} --order 20", 8, 10**300)],
        ids=["qpoly-40", "qpoly-8", "qpoly-1", "qpoly-found", "qpoly-huge-q", "expand-40",
             "expand-20", "expand-found-40", "expand-found-20"],
    )
    def test_correction_refused_above_cost(self, capsys, no_int_digit_limit, no_work,
                                           template, allowed, refused):
        with pytest.raises(WorkStarted):
            main(template.format(allowed).split())
        code, out, err = run(capsys, *template.format(refused).split())
        assert (code, out) == (2, "")
        option, nu = template.split("--", 1)[1].split()[:2]
        assembly = "nu**3" if template.startswith("qpoly") else "nu**4 / 4"
        assert err == (f"error: --{option} {nu} at {(refused + 1).bit_length()} bits of"
                       f" q + 1 exceeds the cost limit of {MAX_CORRECTION_COST}"
                       f" ({assembly} * b**2 + nu**4.5 * b**1.25)\n")

    @pytest.mark.parametrize(
        "max_order,allowed,refused",
        [(400, 2**241 - 2, 2**241 - 1), (200, 2**687 - 2, 2**687 - 1),
         (50, 2**5424 - 2, 2**5424 - 1), (12, 2**42457 - 2, 2**42457 - 1),
         (400, 10**18, 10**100), (200, 10**18, 10**300), (400, 10**18, 10**400)],
        ids=["order-400", "order-200", "order-50", "order-12", "found-400", "found-200",
             "huge-q"],
    )
    @pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
    def test_cumulants_refused_above_cost(self, capsys, no_int_digit_limit, no_work,
                                          max_order, allowed, refused, as_json):
        def argv(q):
            return ["cumulants", str(q), "--max-order", str(max_order),
                    *(["--json"] if as_json else [])]

        with pytest.raises(WorkStarted):
            main(argv(allowed))
        code, out, err = run(capsys, *argv(refused))
        assert (code, out) == (2, "")
        assert err == (f"error: --max-order {max_order} at {(refused + 1).bit_length()} bits"
                       f" of q + 1 exceeds the cost limit of {MAX_CUMULANT_COST}"
                       " ((D + 500)**2 summed over the even k <= K, for D = k*b*log10(2)"
                       " digits)\n")

    @pytest.mark.parametrize(
        "template,q",
        [("expand 3 1 {} --order 40", 8), ("qpoly {} --nu 40", 10**18),
         ("expand 3 1 {} --order 2", 10**18), ("expand 3 1 {} --order 40", 10**18),
         ("cumulants {} --max-order 400", 8), ("cumulants {} --max-order 400", 10**18),
         ("cumulants {} --max-order 400", 2**15 - 1),
         ("cumulants {} --max-order 200", 2**62 - 1),
         ("cumulants {} --max-order 12", 2**17498 - 1),
         # the benchmark's largest cli calls: q <= 8, --nu <= 6, --order <= 3
         ("qpoly {} --nu 6 --json", 8), ("expand 60 100 {} --order 3 --terms --json", 8),
         ("cumulants {} --max-order 12 --oracle --json", 8)],
        ids=["expand-8-40", "qpoly-huge-q", "expand-huge-q-2", "expand-huge-q-40",
             "cumulants-8", "cumulants-huge-q", "cumulants-order-400",
             "cumulants-order-200", "cumulants-order-12", "bench-qpoly", "bench-expand",
             "bench-cumulants"],
    )
    def test_bounded_commands_start_work(self, no_int_digit_limit, no_work, template, q):
        with pytest.raises(WorkStarted):
            main(template.format(q).split())

    def test_readme_commands_start_work(self, no_work):
        # coeff alone calls nothing that WORK patches
        for argv in readme_cli_examples():
            if argv[0] != "coeff":
                with pytest.raises(WorkStarted):
                    main(argv)


def test_one_shot_commands_at_a_huge_q(capsys):
    q = str(10**18)
    assert run(capsys, "coeff", "3", "1", q) == (0, "3\n", "")
    code, out, err = run(capsys, "expand", "3", "1", q, "--order", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith(f"3,1,{q},2,")


def test_expand_at_a_huge_n(capsys):
    # the exact value rounds to 0.0 before (q + 1)**n, 19 MB here, is formed
    code, out, err = run(capsys, "expand", "100000000", "5", "2", "--order", "3", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)[0]["exact"] == 0.0


class TestNonFinite:
    """A nan or inf float is refused wherever it would be written: far in
    the tails the Gaussian density underflows to 0.0 while a correction
    overflows to inf, and 0 * inf is nan."""

    @pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
    @pytest.mark.parametrize(
        "argv,column",
        [
            (["expand", "1", "1000", "2", "--order", "40"], "approximation"),
            (["expand", "1", "1000", "2", "--order", "40", "--terms"], "value"),
            (["expand", "1", str(10**80), "2", "--order", "1"], "approximation"),
            (["expand", "1", str(10**80), "2", "--order", "1", "--terms"], "value"),
        ],
        ids=["order-40", "order-40-terms", "huge-k", "huge-k-terms"],
    )
    def test_exit_2(self, capsys, argv, column, as_json):
        code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {column} is not a finite number")


class TestOut:
    """--out PATH writes exactly the bytes stdout gets without it."""

    @pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
    @pytest.mark.parametrize(
        "command",
        [
            "coeff 4 4 2",
            "row 3 2",
            "expand 100 90 2 --order 2",
            "expand 50 30 1 --order 1 --terms",
            "sweep 2 --order 1 --n-list 20,40,80",
            "sweep 2 --order 1 --n-list 50,100,200",
            "cumulants 2 --max-order 4 --oracle",
            "qpoly 2 --nu 1",
        ],
        ids=["coeff", "row", "expand", "expand-terms", "sweep", "sweep-50-100-200",
             "cumulants-oracle", "qpoly"],
    )
    def test_same_bytes_as_stdout(self, capsys, tmp_path, command, as_json):
        argv = command.split() + (["--json"] if as_json else [])
        code, expected, _ = run(capsys, *argv)
        assert code == 0 and expected
        path = tmp_path / "out"
        assert run(capsys, *argv, "--out", str(path)) == (0, "", "")
        assert path.read_bytes() == expected.encode()


class TestFormatContracts:
    def test_float_round_trip(self, capsys):
        _, out, _ = run(capsys, "expand", "37", "20", "3", "--order", "2")
        rows, _ = parse_csv(out)
        for field in ("x", "exact", "approximation", "abs_error"):
            assert float(repr(float(rows[0][field]))) == float(rows[0][field])

    def test_csv_lf_endings(self, capsys):
        _, out, _ = run(capsys, "row", "2", "2")
        assert "\r" not in out

    def test_json_matches_csv_values(self, capsys):
        _, csv_out, _ = run(capsys, "row", "3", "2")
        _, json_out, _ = run(capsys, "row", "3", "2", "--json")
        csv_rows, _ = parse_csv(csv_out)
        json_rows = json.loads(json_out)
        assert [int(r["coefficient"]) for r in csv_rows] == [
            r["coefficient"] for r in json_rows
        ]

    def test_missing_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


# coeff and row read the recurrence directly: no cached BigRow, so neither
# the dataclass machinery nor fractions
ONE_SHOT = {"extbinom", "extbinom.cli", "extbinom._recurrence"}
# expand, qpoly and cumulants read the record-free kernel special, which
# defines no dataclass; only sweep loads exact and harness
KERNEL = ONE_SHOT | {"extbinom.special"}
SWEEP = KERNEL | {"extbinom.exact", "extbinom.harness"}


@pytest.mark.parametrize(
    "command,modules,absent",
    [
        ("coeff 4 4 2", ONE_SHOT, {"dataclasses", "fractions", "json", "csv"}),
        ("coeff 4 4 2 --json", ONE_SHOT, {"dataclasses", "fractions", "csv"}),
        ("row 2 2", ONE_SHOT, {"dataclasses", "fractions", "csv"}),
        ("row 2 2 --json", ONE_SHOT, {"dataclasses", "fractions", "csv"}),
        ("expand 100 90 2 --order 1 --terms", KERNEL, {"dataclasses", "inspect", "csv"}),
        ("cumulants 2 --max-order 4 --oracle", KERNEL, {"dataclasses", "inspect", "csv"}),
        ("qpoly 2 --nu 1", KERNEL, {"dataclasses", "inspect", "csv"}),
        ("sweep 2 --order 1 --n-list 50,100,200", SWEEP, set()),
    ],
    ids=["coeff", "coeff-json", "row", "row-json", "expand", "cumulants", "qpoly",
         "sweep"],
)
def test_command_loads_only_what_it_runs(command, modules, absent):
    # the rest of the library is start-up time a command does not need;
    # numpy is most of it, and only sweep evaluates floats over whole rows
    argv = command.split()
    run_python("-c", (
        "import sys\n"
        "from extbinom.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "package = sorted(m for m in sys.modules if m.split('.')[0] == 'extbinom')\n"
        f"assert package == {sorted(modules)!r}, package\n"
        f"loaded = sorted(set(sys.modules) & set({sorted(absent)!r}))\n"
        "assert not loaded, loaded\n"
        f"assert ('numpy' in sys.modules) == {argv[0] == 'sweep'}, 'numpy'\n"
    ))


def test_commands_load_only_what_the_stdlib_core_loads(tmp_path):
    # python -S runs without site, which on some installs preloads much of
    # the stdlib and so would hide an import of the CLI's own; the baseline
    # is what argparse, json and fractions load on the Python under test
    watched = ["csv", "dataclasses", "inspect", "pathlib", "threading", "typing"]
    report = f"sys.stderr.write(' '.join(sorted(set(sys.modules) & set({watched!r}))))\n"
    baseline = run_python("-S", "-c", "import sys, argparse, json, fractions\n" + report)
    commands = [
        f"{command}{fmt}".split()
        for command in ("coeff 4 4 2", "row 3 2", "expand 100 90 2 --order 1 --terms",
                        "qpoly 2 --nu 1", "cumulants 2 --max-order 4 --oracle")
        for fmt in ("", " --json")
    ] + [["coeff", "4", "4", "2", "--out", str(tmp_path / "out")]]
    probe = run_python("-S", "-c", (
        "import sys\n"
        "from extbinom.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n" + report
    ))
    extra = set(probe.stderr.split()) - set(baseline.stderr.split())
    assert not extra, extra


@pytest.mark.parametrize(
    "command",
    ["coeff 255 205 3", "coeff 4 4 2 --json", "coeff 3 99 2", "row 30 2",
     "row 7 3 --json", "expand 100 90 2 --order 1 --terms", "expand 60 10 3"],
)
def test_one_shot_commands_leave_the_row_cache_alone(capsys, command):
    before = compute_row.cache_info()
    assert run(capsys, *command.split())[0] == 0
    assert compute_row.cache_info() == before


def test_fit_does_not_import_numpy():
    run_python("-c", (
        "import sys\n"
        "from extbinom.harness import _ols_loglog\n"
        "assert 'numpy' not in sys.modules, 'numpy imported by extbinom.harness'\n"
        "_ols_loglog([50, 100, 200, 400], [2e-3, 9e-4, 5e-4, 2e-4])\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    ))


@pytest.mark.parametrize(
    "argv, code",
    [(["coeff", "4", "4", "2"], 0), (["coeff", "0", "0", "2"], 2), (["coeff"], 2)],
    ids=["ok", "error", "usage"],
)
def test_main_restores_int_digit_limit(capsys, argv, code):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        if argv == ["coeff"]:  # argparse's usage error leaves by SystemExit
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == code
        else:
            assert main(argv) == code
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(old)


def argv(*parts):
    return [str(part) for part in parts]


# JSON type of each column, by command; a Fraction column is a "p/q" string
COLUMNS = {
    "coeff": {"n": int, "k": int, "q": int, "coefficient": int},
    "row": {"k": int, "coefficient": int},
    "expand": {
        "n": int, "k": int, "q": int, "order": int,
        "x": float, "exact": float, "approximation": float, "abs_error": float,
    },
    "expand --terms": {"term": str, "value": float},
    "sweep": {"n": int, "sup_error": float, "argmax_k": int},
    "cumulants": {"k": int, "gamma": Fraction},
    "cumulants --oracle": {
        "k": int, "gamma": Fraction, "oracle_gamma": Fraction, "match": bool,
    },
    "qpoly": {"power": int, "coefficient": Fraction},
}


@st.composite
def valid_commands(draw):
    """A small valid command line and the COLUMNS key of its table."""
    kind = draw(st.sampled_from(sorted(COLUMNS)))
    n, q = draw(st.integers(1, 30)), draw(st.integers(1, 6))
    k = draw(st.integers(0, n * q))
    if kind == "coeff":
        return kind, argv("coeff", n, k, q)
    if kind == "row":
        return kind, argv("row", n, q)
    if kind.startswith("expand"):
        order = draw(st.integers(0, 3))
        return kind, argv("expand", n, k, q, "--order", order, *kind.split()[1:])
    if kind == "sweep":
        ns = sorted(draw(st.sets(st.integers(1, 60), min_size=3, max_size=3)))
        return kind, argv(
            "sweep", q, "--order", draw(st.integers(0, 3)),
            "--n-list", ",".join(map(str, ns)),
        )
    if kind.startswith("cumulants"):
        max_order = draw(st.integers(1, 12))
        return kind, argv("cumulants", q, "--max-order", max_order, *kind.split()[1:])
    return kind, argv("qpoly", q, "--nu", draw(st.integers(1, 4)))


def assert_cell_agrees(kind, value, cell):
    if kind is Fraction:
        assert type(value) is str
        assert value == cell == str(Fraction(cell))
    elif kind is bool:
        assert type(value) is bool
        assert cell == ("true" if value else "false")
    elif kind is float:
        assert type(value) is float
        assert repr(value) == cell
    else:
        assert type(value) is kind
        assert str(value) == cell


@given(valid_commands())
@settings(max_examples=150, deadline=None)
def test_csv_and_json_agree(command):
    kind, args = command
    code, csv_out, _ = run_captured(args)
    json_code, json_out, _ = run_captured(args + ["--json"])
    assert (code, json_code) == (0, 0)
    payload = json.loads(json_out)
    footer_comments = []
    if kind == "sweep":
        footer = payload.pop()
        assert list(footer) == ["fitted_slope", "slope_stderr"]
        assert [type(v) for v in footer.values()] == [float, float]
        footer_comments = [
            f"# fitted_slope={footer['fitted_slope']!r},"
            f"stderr={footer['slope_stderr']!r}"
        ]
    if kind == "coeff":
        # coeff's CSV is its bare value; its one JSON row checks only types
        assert csv_out == f"{payload[0]['coefficient']}\n"
        rows, comments = [{k: str(v) for k, v in payload[0].items()}], []
    else:
        rows, comments = parse_csv(csv_out)
    assert comments == footer_comments
    assert len(rows) == len(payload) > 0
    columns = COLUMNS[kind]
    for row, obj in zip(rows, payload):
        assert list(row) == list(obj) == list(columns)
        for key, value in obj.items():
            assert_cell_agrees(columns[key], value, row[key])


NONPOSITIVE = st.integers(-50, 0)
NEGATIVE = st.integers(-50, -1)
NOT_AN_INT = st.sampled_from(["1.5", "x", "2e3", "0x10", "one"])
# a path below a regular file, which no command can create
UNWRITABLE = st.just(str(Path(__file__) / "out.csv"))
ORDER_OVER = st.integers(MAX_ORDER + 1, MAX_ORDER + 1000)
CUMULANT_ORDER_OVER = st.integers(MAX_CUMULANT_ORDER + 1, MAX_CUMULANT_ORDER + 1000)

# every class of invalid input: a command with one slot, the values that
# fill it, and whether the order guard must refuse it before any work
INVALID = {
    "coeff-n": ("coeff {} 1 2", NONPOSITIVE, False),
    "coeff-q": ("coeff 3 1 {}", NONPOSITIVE, False),
    "row-n": ("row {} 2", NONPOSITIVE, False),
    "row-q": ("row 3 {}", NONPOSITIVE, False),
    "expand-n": ("expand {} 1 2", NONPOSITIVE, False),
    "expand-q": ("expand 3 1 {}", NONPOSITIVE, False),
    "sweep-q": ("sweep {} --n-list 3,4,5", NONPOSITIVE, False),
    "cumulants-q": ("cumulants {}", NONPOSITIVE, False),
    "qpoly-q": ("qpoly {} --nu 1", NONPOSITIVE, False),
    "expand-order-low": ("expand 3 1 2 --order {}", NEGATIVE, False),
    "sweep-order-low": ("sweep 2 --n-list 3,4,5 --order {}", NEGATIVE, False),
    "qpoly-nu-low": ("qpoly 3 --nu {}", NONPOSITIVE, False),
    "cumulants-max-order-low": ("cumulants 4 --max-order {}", NONPOSITIVE, False),
    "expand-order-high": ("expand 3 1 2 --order {}", ORDER_OVER, True),
    "sweep-order-high": ("sweep 2 --n-list 3,4,5 --order {}", ORDER_OVER, True),
    "qpoly-nu-high": ("qpoly 3 --nu {}", ORDER_OVER, True),
    "cumulants-max-order-high": (
        "cumulants 4 --max-order {}", CUMULANT_ORDER_OVER, True
    ),
    "row-cost-n": ("row {} 2", st.integers(5356, 10**400), True),
    "row-cost-q": ("row 1 {}", st.integers(391200, 10**400), True),
    "n-list-short": ("sweep 2 --n-list={}", st.sampled_from(["", "3", "3,4"]), False),
    "n-list-not-increasing": (
        "sweep 2 --n-list={}", st.sampled_from(["4,3,5", "3,3,5", "5,4,3"]), False
    ),
    "n-list-nonpositive": ("sweep 2 --n-list={},4,5", NONPOSITIVE, False),
    "n-list-not-an-int": ("sweep 2 --n-list=3,{},5", NOT_AN_INT, False),
    "coeff-not-an-int": ("coeff {} 1 2", NOT_AN_INT, False),
    "row-not-an-int": ("row 3 {}", NOT_AN_INT, False),
    "expand-not-an-int": ("expand 3 {} 2", NOT_AN_INT, False),
    "sweep-not-an-int": ("sweep {}", NOT_AN_INT, False),
    "cumulants-not-an-int": ("cumulants {}", NOT_AN_INT, False),
    "qpoly-not-an-int": ("qpoly {} --nu 1", NOT_AN_INT, False),
    "coeff-out": ("coeff 3 1 2 --out {}", UNWRITABLE, False),
    "row-out": ("row 3 2 --out {}", UNWRITABLE, False),
    "expand-out": ("expand 3 1 2 --out {}", UNWRITABLE, False),
    "sweep-out": ("sweep 2 --n-list 3,4,5 --out {}", UNWRITABLE, False),
    "cumulants-out": ("cumulants 2 --out {}", UNWRITABLE, False),
    "qpoly-out": ("qpoly 2 --nu 1 --out {}", UNWRITABLE, False),
}


@pytest.mark.parametrize("template,values,guarded", INVALID.values(), ids=INVALID)
@given(data=st.data(), as_json=st.booleans())
@settings(max_examples=10, deadline=None)
def test_invalid_input_exits_2(template, values, guarded, data, as_json):
    value = data.draw(values)
    args = [part.format(value) for part in template.split()]
    if as_json:
        args.append("--json")
    with ExitStack() as stack:
        if guarded:  # a limit the guard misses fails here instead of running
            for module, names in WORK.items():
                for name in names:
                    stack.enter_context(
                        mock.patch.object(module, name, side_effect=WorkStarted))
        code, out, err = run_captured(args)
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert "error: " in err.splitlines()[-1]


def readme_cli_examples():
    """The command lines of the README's CLI block, without `extbinom`."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#")[0].split()[1:] for line in block.splitlines()]


def buffered_env():
    """The extbinom under test on the path and PYTHONUNBUFFERED unset, so
    that stdout is block-buffered, as when a user runs the command."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_PARENT)}
    env.pop("PYTHONUNBUFFERED", None)
    return env


def run_process(*argv, stdout=subprocess.PIPE):
    return subprocess.run([sys.executable, *argv], env=buffered_env(),
                          stdout=stdout, stderr=subprocess.PIPE, timeout=60)


def test_fresh_interpreters_import_the_package_under_test():
    code = "import extbinom; print(extbinom.__file__)"
    for out in (run_python("-c", code).stdout, run_process("-c", code).stdout.decode()):
        assert Path(out.strip()).resolve() == Path(extbinom.__file__).resolve()


@pytest.mark.parametrize(
    "command,expected",
    [
        ("row 4 2",
         b"k,coefficient\n0,1\n1,4\n2,10\n3,16\n4,19\n5,16\n6,10\n7,4\n8,1\n"),
        ("qpoly 2 --nu 1", b"power,coefficient\n0,-3/16\n2,3/8\n4,-1/16\n"),
        ("qpoly 2 --nu 2",
         b"power,coefficient\n0,1/512\n2,-27/128\n4,53/256\n6,-79/1920\n8,1/512\n"),
        ("cumulants 2 --max-order 4 --oracle",
         b"k,gamma,oracle_gamma,match\n1,1,1,true\n2,2/3,2/3,true\n3,0,0,true\n"
         b"4,-2/3,-2/3,true\n"),
        # x takes only correctly rounded IEEE steps, so its bytes do not depend on libm
        ("expand 50 30 1 --order 1 --terms", b"x,1.414213562373095\n"),
        ("expand 100 90 2 --order 1 --terms", b"x,-1.224744871391589\n"),
        # C(20001, 2): with k <= q every composition counts
        ("coeff 20000 2 2", b"200010000\n"),
    ],
    ids=["row", "qpoly-nu1", "qpoly-nu2", "cumulants-oracle", "expand-x-odd",
         "expand-x-even", "coeff-far"],
)
def test_stdout_bytes(command, expected):
    proc = run_process("-m", "extbinom.cli", *command.split())
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines(keepends=True)
    # of expand --terms, the x line only, after the header
    assert (lines[1] if "--terms" in command else proc.stdout) == expected


class TestProcessExit:
    """The console script and ``python -m extbinom.cli`` end the process
    through ``entrypoint``, past the interpreter's teardown."""

    @pytest.mark.parametrize("as_json", [False, True], ids=["csv", "json"])
    @pytest.mark.parametrize(
        "args", readme_cli_examples(), ids=lambda args: " ".join(args[:2])
    )
    def test_same_as_main(self, args, as_json):
        args = args + ["--json"] if as_json else args
        code, out, _ = run_captured(args)
        proc = run_process("-m", "extbinom.cli", *args)
        assert (proc.returncode, proc.stdout) == (code, out.encode())

    @pytest.mark.parametrize(
        "command,code",
        [("coeff 4 4 2", 0), ("--help", 0), ("qpoly 2 --nu 41", 2), ("nosuch", 2)],
    )
    def test_exit_code(self, command, code):
        proc = run_process("-m", "extbinom.cli", *command.split())
        assert proc.returncode == code, proc.stderr
        assert (proc.stdout == b"") == (code == 2)

    def test_atexit_callbacks_run(self):
        proc = run_process("-c", (
            "import atexit, sys\n"
            "from extbinom.cli import entrypoint\n"
            "atexit.register(print, 'atexit ran')\n"
            "sys.argv = ['extbinom', 'coeff', '4', '4', '2']\n"
            "entrypoint()\n"
        ))
        assert (proc.returncode, proc.stdout) == (0, b"19\natexit ran\n")

    @pytest.mark.skipif(
        not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2
        or not os.path.exists("/proc/self/status"),
        reason="needs Linux's /proc and at least 2 CPUs, where OpenBLAS starts a pool",
    )
    @pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "set"])
    def test_openblas_threads(self, preset):
        # sweep imports numpy; extbinom calls no BLAS routine, so unless the
        # caller sized OpenBLAS's pool the process runs one thread
        with mock.patch.dict(os.environ):
            os.environ.pop("OPENBLAS_NUM_THREADS", None)
            if preset is not None:
                os.environ["OPENBLAS_NUM_THREADS"] = preset
            proc = run_process("-c", (
                "import atexit, os, sys\n"
                "from extbinom.cli import entrypoint\n"
                "def report():\n"
                "    status = open('/proc/self/status').read().split()\n"
                "    threads = status[status.index('Threads:') + 1]\n"
                "    print(os.environ['OPENBLAS_NUM_THREADS'], threads, file=sys.stderr)\n"
                "atexit.register(report)\n"
                "sys.argv = ['extbinom', 'sweep', '2', '--order', '1',\n"
                "            '--n-list', '50,100,200']\n"
                "entrypoint()\n"
            ))
        assert proc.returncode == 0, proc.stderr
        value, threads = proc.stderr.decode().split()
        if preset is None:
            assert (value, threads) == ("1", "1")
        else:
            assert value == preset

    def test_profiler_still_reports(self):
        proc = run_process("-m", "cProfile", "-m", "extbinom.cli", "coeff", "4", "4", "2")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith(b"19\n")
        assert b"function calls" in proc.stdout

    def test_closed_stdout_exit_2(self):
        command = f"{shlex.quote(sys.executable)} -m extbinom.cli coeff 4 4 2 >&-"
        proc = subprocess.run(["sh", "-c", command], env=buffered_env(),
                              capture_output=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, b"")
        assert proc.stderr == b"error: stdout is closed\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_write_error_under_a_trace_function_exit_2(self):
        # entrypoint leaves by SystemExit here; the interpreter's last flush
        # must not fail again on the bytes left in stdout's buffer
        with open("/dev/full", "w") as full:
            proc = run_process("-c", (
                "import runpy, sys\n"
                "sys.settrace(lambda *args: None)\n"
                "sys.argv = ['extbinom', 'coeff', '4', '4', '2']\n"
                "runpy.run_module('extbinom.cli', run_name='__main__')\n"
            ), stdout=full)
        assert proc.returncode == 2
        assert proc.stderr == b"error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_write_error_under_trace_module(self, tmp_path):
        # python -m trace discards its program's exit status (its main
        # passes on SystemExit), so the code is trace's own 0, not 120
        with open("/dev/full", "w") as full:
            proc = run_process(
                "-m", "trace", "--count", "--coverdir", str(tmp_path),
                "--module", "extbinom.cli", "coeff", "4", "4", "2", stdout=full,
            )
        assert proc.returncode == 0
        assert proc.stderr == b"error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_stdout_write_error_exit_2(self):
        # block-buffered, the write fails only at the flush
        with open("/dev/full", "w") as full:
            proc = run_process("-m", "extbinom.cli", "coeff", "4", "4", "2", stdout=full)
        assert proc.returncode == 2
        assert proc.stderr == b"error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("mode", ["buffered", "unbuffered", "traced"])
    @pytest.mark.parametrize("command", ["coeff 0 0 2", "qpoly 2 --nu 41"])
    def test_stderr_write_error_exit_2(self, command, mode):
        # the error line cannot be reported, and the last flush of stderr,
        # by entrypoint or by the interpreter, must not fail again
        env = buffered_env()
        if mode == "unbuffered":
            env["PYTHONUNBUFFERED"] = "1"
        if mode == "traced":
            argv = ["-c", (
                "import runpy, sys\n"
                "sys.settrace(lambda *args: None)\n"
                "sys.argv = ['extbinom', *sys.argv[1:]]\n"
                "runpy.run_module('extbinom.cli', run_name='__main__')\n"
            )]
        else:
            argv = ["-m", "extbinom.cli"]
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, *argv, *command.split()], env=env,
                                  stdout=subprocess.PIPE, stderr=full, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, b"")
