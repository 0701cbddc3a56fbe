"""CLI surface: command output, formats, exit codes, round trips."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from extbinom import cli, coefficient
from extbinom.cli import MAX_CUMULANT_ORDER, MAX_ORDER, main

SQRT_2PI = math.sqrt(2 * math.pi)
ROOT = Path(__file__).resolve().parents[1]


def run_python(*argv):
    """Run a fresh interpreter with the checkout's src on the path."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_int_digit_limit():
    """Lift this interpreter's int/str digit limit, where it has one, so
    the test itself can render and parse integers of any size."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    old = get_limit()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


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
        code, out, _ = run(capsys, "row", "2", "2", "--csv")
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
        _, out, _ = run(capsys, "row", "1", "3", "--csv")
        rows, _ = parse_csv(out)
        assert [r["coefficient"] for r in rows] == ["1", "1", "1", "1"]

    def test_zero_n_exit_2(self, capsys):
        assert run(capsys, "row", "0", "2")[0] == 2

    def test_json_large_integers_exact(self, capsys):
        _, out, _ = run(capsys, "row", "120", "2", "--json")
        rows = json.loads(out)
        assert sum(r["coefficient"] for r in rows) == 3**120


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

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "2", "--n-list", "20,40,80", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        rows, comments = parse_csv(path.read_text())
        assert len(rows) == 3 and len(comments) == 1

    def test_study_script_csv_matches_sweep(self, capsys, tmp_path):
        run_python(
            str(ROOT / "scripts" / "convergence_study.py"), "--qs", "2",
            "--orders", "1", "--n-list", "50,100,200", "--out-dir", str(tmp_path),
        )
        _, out, _ = run(capsys, "sweep", "2", "--order", "1", "--n-list", "50,100,200")
        assert (tmp_path / "sweep_q2_order1.csv").read_bytes() == out.encode()

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


class TestOrderLimits:
    """Each order option is checked against its limit before any work."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise WorkStarted
        for name in ("exact_scaled_value", "approximate_scaled", "rate_sweep",
                     "cumulants_up_to", "uniform_correction"):
            monkeypatch.setattr(cli, name, refuse)

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


@pytest.mark.parametrize(
    "argv",
    [
        ["coeff", "4", "4", "2"],
        ["row", "2", "2"],
        ["expand", "100", "100", "2", "--order", "2", "--terms"],
    ],
    ids=["coeff", "row", "expand"],
)
def test_scalar_commands_do_not_import_numpy(argv):
    # importing numpy is most of a short command's run time
    run_python("-c", (
        "import sys\n"
        "from extbinom.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy imported'\n"
    ))


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="interpreter has no int/str digit limit",
)
@pytest.mark.parametrize(
    "argv", [["coeff", "4", "4", "2"], ["coeff", "0", "0", "2"]], ids=["ok", "error"]
)
def test_main_restores_int_digit_limit(capsys, argv):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        main(argv)
        assert sys.get_int_max_str_digits() == 5000
    finally:
        sys.set_int_max_str_digits(old)
