"""What each entry point loads: the package and the CLI import a module
only when a call runs it."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

import stochdom

SRC = os.path.dirname(os.path.dirname(os.path.abspath(stochdom.__file__)))

# the public names before the exports became lazy, plus InvalidArgument
PUBLIC = {
    "AsymptotePoly", "AsymptoteSide", "CurveKind", "CurveSample", "DiscreteDistribution",
    "DomainMismatch", "EmptySupport", "FilterOutcome", "FilterReport", "GenConfig",
    "GenerationExhausted", "IntegratedCurve", "InvalidArgument", "InvalidBudget", "MassNotOne",
    "MomentHypothesisViolated", "N_MAX", "NegativeMass", "NoiseSearchReport", "NonIntegrable",
    "OrderOutOfRange", "ParseError", "Piece", "PiecewisePolynomial", "Polynomial",
    "PropertySuiteReport", "QuantileStep", "Rat", "Relation", "SearchBudget", "SearchStatus",
    "SignReport", "SignVerdict", "StochdomError", "SupportCapExceeded", "UnknownSuite",
    "ValidationError", "ValueTooLarge", "Verdict", "Witness", "asymptote", "convolve",
    "difference_curve", "dist_validate", "distributions", "dominance", "dominance_gap_integral",
    "dump_distribution", "errors", "exact", "export_curve", "falsify", "fileio",
    "filter_consistency_audit", "filters", "gen_moment_matched_pair",
    "gen_orderstat_matched_pair", "gen_random_dist", "integrated_curve",
    "integrated_curve_via_recursion", "isd_compare", "isd_orderstat_filter",
    "load_distribution", "min_orderstat_mean", "min_orderstat_means", "noise",
    "noise_precondition", "noise_search", "nonneg_on_interval", "nonneg_on_ray",
    "orderstat_expansion", "parse_distribution", "point_mass", "pw_antiderivative",
    "pw_linear_combine", "quantile", "rat", "rat_str", "raw_moment", "registered_suites",
    "run_property_suite", "sd_compare", "sd_moment_filter", "strong_isd_compare", "transforms",
}


def _loaded_after(code: str) -> list:
    """The stochdom modules a fresh interpreter holds after running code."""
    probe = code + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m == 'stochdom' or m.startswith('stochdom.'))), file=sys.stderr)\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[-1])


def test_import_loads_only_scalars_and_errors():
    assert _loaded_after("import stochdom") == ["stochdom", "stochdom._scalar", "stochdom.errors"]


def test_every_public_name_resolves_to_its_module_object():
    assert set(stochdom.__all__) == PUBLIC
    assert PUBLIC <= set(dir(stochdom))
    for name in stochdom.__all__:
        value = getattr(stochdom, name)
        if name in stochdom._LAZY or name == "errors":
            assert value is importlib.import_module(f"stochdom.{name}")
        elif name in stochdom._HOME:
            home = importlib.import_module(f"stochdom.{stochdom._HOME[name]}")
            assert value is getattr(home, name)
            # defined there, not imported there from elsewhere
            assert getattr(value, "__module__", home.__name__) == home.__name__


def test_submodule_attribute_loads_on_first_access():
    code = ("import stochdom\n"
            "assert stochdom.exact.Polynomial.make((1, 2))(3) == 7\n"
            "from stochdom import sd_compare, point_mass\n"
            "assert sd_compare(point_mass(0), point_mass(1), 1).relation.value == 'LeftDominated'\n")
    assert "stochdom.exact" in _loaded_after(code)


def test_package_names_follow_a_rebinding_in_their_module(monkeypatch):
    """The package caches no lazy name, so a function rebound in its own
    module (by a tracer, say) is what the package hands out, and nothing
    of the rebinding outlives its undoing."""
    from stochdom import dominance

    original = dominance.sd_compare

    def wrapped(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(dominance, "sd_compare", wrapped)
    assert stochdom.sd_compare is wrapped
    monkeypatch.undo()
    assert stochdom.sd_compare is original
    assert "sd_compare" not in vars(stochdom)


def test_no_module_keeps_a_rebinding_made_before_it_loaded():
    """A tracer that loads each module just before rebinding its entry
    points (as bench/spans.py does) and then undoes what it rebound leaves
    no wrapper behind, even in the modules that loaded during the trace."""
    code = """
import importlib, sys
import stochdom
targets = [("exact", "pw_nonneg"), ("exact", "nonneg_on_interval"), ("exact", "pw_linear_combine"),
           ("dominance", "sd_compare"), ("dominance", "isd_compare"),
           ("dominance", "strong_isd_compare"), ("distributions", "convolve"),
           ("distributions", "min_orderstat_mean"), ("filters", "sd_moment_filter"),
           ("filters", "isd_orderstat_filter"), ("noise", "noise_search"),
           ("falsify", "run_property_suite"), ("fileio", "parse_distribution")]
saved, wrappers = [], []
for modname, attr in targets:
    orig = getattr(importlib.import_module("stochdom." + modname), attr)
    wrapped = lambda *a, _f=orig, **k: _f(*a, **k)
    wrappers.append(wrapped)
    for m in [m for k, m in sys.modules.items() if k.startswith("stochdom")]:
        for key, value in list(vars(m).items()):
            if value is orig:
                setattr(m, key, wrapped)
                saved.append((m, key, orig))
for m, key, orig in reversed(saved):
    setattr(m, key, orig)
left = [(k, key) for k, m in sys.modules.items() if k.startswith("stochdom")
        for key, value in vars(m).items() if any(value is w for w in wrappers)]
assert not left, left
"""
    assert "stochdom.falsify" in _loaded_after(code)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stochdom.no_such_name


def test_parsing_loads_no_curve_engine():
    loaded = _loaded_after(
        "from stochdom import parse_distribution\n"
        "parse_distribution({'atoms': [{'value': '1/3', 'mass': '1'}]})\n"
    )
    assert "stochdom.fileio" in loaded
    assert "stochdom.exact" not in loaded and "stochdom.transforms" not in loaded


def test_falsify_fishburn_loads_neither_noise_nor_filters():
    loaded = _loaded_after(
        "import contextlib, io, json\n"
        "from stochdom.cli import run_cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    assert run_cli(['falsify', '--suite', 'fishburn', '--trials', '3']) == 0\n"
        "assert json.loads(out.getvalue())['result']['passed']\n"
    )
    assert "stochdom.falsify" in loaded
    assert "stochdom.noise" not in loaded and "stochdom.filters" not in loaded


def test_help_names_every_suite(capsys):
    from stochdom.cli import run_cli

    assert run_cli(["falsify", "--help"]) == 0
    out = capsys.readouterr().out
    assert ", ".join(stochdom.registered_suites()) in " ".join(out.split())
    assert run_cli(["--help"]) == 0
    out = capsys.readouterr().out
    assert "export-curve" in out and "noise-search" in out


def test_run_cli_accepts_arguments_after_a_separator(tmp_path, capsys):
    from stochdom.cli import run_cli

    path = tmp_path / "x.json"
    path.write_text(json.dumps({"atoms": [{"value": "1", "mass": "1"}]}))
    assert run_cli(["moments", "--upto", "2", "--", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["moment_2"] == "1/1"
