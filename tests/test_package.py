"""The package namespace: 26 public names, each loaded from the submodule
that defines it on first use; and the README's example of them."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import extbinom

# the public names, by the submodule that defines them
PUBLIC = {
    "cumulants": ["CumulantVector", "cumulant", "cumulants_from_moments",
                  "cumulants_up_to"],
    "edgeworth": ["GaussianPolynomial", "approximate_scaled",
                  "correction_from_cumulants", "exact_scaled_value", "standardize",
                  "uniform_correction"],
    "exact": ["BigRow", "coefficient", "composition_count", "compute_row",
              "iter_rows", "scaled_probability"],
    "harness": ["SweepRecord", "SweepReport", "central_ratio",
                "first_order_cross_check", "rate_sweep", "uniform_error"],
    "special": ["RationalPolynomial", "bernoulli", "enumerate_partition_solutions",
                "hermite"],
}
DEFINED_IN = {name: module for module, names in PUBLIC.items() for name in names}


def test_all_is_the_public_names():
    assert len(DEFINED_IN) == 26
    assert extbinom.__all__ == sorted(DEFINED_IN)


@pytest.mark.parametrize("name", sorted(DEFINED_IN))
def test_name_is_its_submodules_object(name):
    module = importlib.import_module(f"extbinom.{DEFINED_IN[name]}")
    assert getattr(extbinom, name) is getattr(module, name)
    assert name in dir(extbinom)


def test_star_import_binds_all():
    namespace = {}
    exec("from extbinom import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == extbinom.__all__


def test_unknown_name():
    with pytest.raises(AttributeError, match="no_such_name"):
        extbinom.no_such_name
    with pytest.raises(ImportError):
        exec("from extbinom import no_such_name", {})


def test_names_load_on_first_use():
    parent = Path(extbinom.__file__).resolve().parents[1]  # of the extbinom under test
    env = {**os.environ, "PYTHONPATH": str(parent)}
    code = (
        "import sys\n"
        "import extbinom\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('extbinom.'))\n"
        "assert loaded() == [], loaded()\n"
        "assert set(extbinom.__all__) <= set(dir(extbinom))\n"
        "assert loaded() == [], loaded()\n"
        "extbinom.compute_row\n"
        "assert loaded() == ['extbinom._recurrence', 'extbinom.exact'], loaded()\n"
        "assert extbinom.harness.rate_sweep is extbinom.rate_sweep\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_block():
    """The README's ``## Library`` block runs, and each result whose comment
    is a Python expression has that expression as its repr."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    block = text.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(block, namespace)
    checked = []
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        try:  # the other comments are prose
            want = eval(comment, {"Fraction": Fraction})
        except (SyntaxError, NameError):
            continue
        got = eval(code, namespace)
        assert (got, repr(got)) == (want, comment.strip())
        checked.append(code.strip())
    assert checked == ["compute_row(4, 2).coeffs", "scaled_probability(4, 4, 2)"]
