"""Distribution files, curve export, and the command-line interface."""

from __future__ import annotations

import json

import pytest

from stochdom import (
    dist_validate,
    dump_distribution,
    export_curve,
    load_distribution,
    parse_distribution,
    point_mass,
    rat,
)
from stochdom._scalar import MAX_LITERAL_DIGITS, MAX_LITERAL_EXPONENT, rat_str
from stochdom.cli import run_cli
from stochdom.errors import MassNotOne, ParseError, StochdomError, ValueTooLarge
from stochdom.fileio import curve_sample_csv, distribution_doc
from stochdom.transforms import CurveKind


@pytest.fixture
def files(tmp_path, jumpy_pair, crossing_triples):
    paths = {}
    for name, dist in (
        ("x31", jumpy_pair[0]),
        ("y31", jumpy_pair[1]),
        ("x34", crossing_triples[0]),
        ("y34", crossing_triples[1]),
    ):
        p = tmp_path / f"{name}.json"
        dump_distribution(dist, str(p), name=name)
        paths[name] = str(p)
    return paths


# ---------------------------------------------------------------------------
# parsing and round-trip
# ---------------------------------------------------------------------------


def test_parse_decimal_strings(jumpy_pair):
    doc = {"atoms": [{"value": "4", "mass": "0.9"}, {"value": "4.1", "mass": "0.1"}]}
    assert parse_distribution(doc).atoms == jumpy_pair[1].atoms


def test_parse_fraction_literal():
    doc = {"atoms": [{"value": "13/4", "mass": "1"}]}
    assert parse_distribution(doc).atoms == ((rat(13, 4), rat(1)),)


def test_parse_rejects_floats():
    with pytest.raises(ParseError, match="inexact"):
        parse_distribution({"atoms": [{"value": 4.1, "mass": "1"}]})


def test_parse_rejects_mass_shortfall():
    with pytest.raises(MassNotOne):
        parse_distribution(
            {"atoms": [{"value": "0", "mass": "0.5"}, {"value": "1", "mass": "0.49"}]}
        )


def test_literal_size_is_bounded():
    # both bounds reached (the exponent's digits count too); the values
    # still print back exactly
    nines = MAX_LITERAL_DIGITS - 1 - len(str(MAX_LITERAL_EXPONENT))
    big = rat("0." + "9" * nines + f"e-{MAX_LITERAL_EXPONENT}")
    assert rat_str(big) == f"{10**nines - 1}/{10**(nines + MAX_LITERAL_EXPONENT)}"
    assert rat(f"1e{MAX_LITERAL_EXPONENT}") == 10**MAX_LITERAL_EXPONENT
    assert rat("1e2_000") == rat("1_0e1_999") == 10**2000
    # just over either bound, also with PEP 515 underscores; unguarded, each
    # of these would still be cheap
    for text in (
        f"1e{MAX_LITERAL_EXPONENT + 1}",
        f"1E-{MAX_LITERAL_EXPONENT + 1}",
        "1e100000",
        "1e2_001",
        "1e100_000",
        "1E-1_0_0_0_0_0",
        "0." + "1" * MAX_LITERAL_DIGITS,
        "1/" + "3" * MAX_LITERAL_DIGITS,
    ):
        with pytest.raises(ValueError):
            rat(text)
        doc = {"atoms": [{"value": text, "mass": "1"}]}
        with pytest.raises(ParseError, match=r"atoms\[0\].value"):
            parse_distribution(doc)


def test_cli_rejects_oversized_numbers(tmp_path, capsys):
    paths = []
    for i, text in enumerate(("1e100000", "1e2_001", "1e100_000")):
        paths.append(tmp_path / f"exp{i}.json")
        paths[-1].write_text('{"atoms": [{"value": "' + text + '", "mass": "1"}]}')
    digits = tmp_path / "digits.json"
    digits.write_text('{"atoms": [{"value": ' + "1" * 5000 + ', "mass": "1"}]}')
    for path in (*paths, digits):
        with pytest.raises(ParseError):
            load_distribution(str(path))
        assert run_cli(["moments", "--upto", "2", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error" in err


def test_cli_rejects_output_past_the_digit_limit(tmp_path, capsys):
    # the order-12 cdf has (x - 10**400)**11 in it: 4,401 digits
    path = tmp_path / "wide.json"
    path.write_text('{"atoms": [{"value": "0", "mass": "1/2"}, {"value": "1e400", "mass": "1/2"}]}')
    assert run_cli(["transform", "--kind", "cdf", "--order", "12", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "cannot be written out" in err
    with pytest.raises(ValueTooLarge):
        rat_str(rat(10) ** 4400)
    assert issubclass(ValueTooLarge, StochdomError)


def test_parse_reports_field(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"atoms": [{"value": "zz/3", "mass": "1"}]}')
    with pytest.raises(ParseError, match=r"atoms\[0\].value"):
        load_distribution(str(path))


def test_round_trip(tmp_path, crossing_triples):
    d = crossing_triples[1]
    path = tmp_path / "d.json"
    dump_distribution(d, str(path), name="d")
    again = load_distribution(str(path))
    assert again.atoms == d.atoms
    # rationals re-emitted canonically
    doc = distribution_doc(again)
    assert doc["atoms"][0] == {"value": "1/1", "mass": "1/5"}


# ---------------------------------------------------------------------------
# curve export
# ---------------------------------------------------------------------------


def test_export_grid_values(jumpy_pair):
    sample = export_curve(jumpy_pair[0], CurveKind.QUANTILE, 3, 5)
    assert [exact for _, _, exact in sample.points] == [
        "0/1",
        "0/1",
        "0/1",
        "5/16",
        "5/4",
    ]


def test_export_cdf_hull():
    sample = export_curve(point_mass(0), CurveKind.CDF, 2, 3)
    assert [exact for _, _, exact in sample.points] == ["0/1", "0/1", "1/1"]


def test_export_quantile_endpoint_is_mean(crossing_triples):
    d = crossing_triples[0]
    sample = export_curve(d, CurveKind.QUANTILE, 2, 5)
    assert sample.points[-1][2] == "7/2"


def test_export_rejects_tiny_grid(crossing_triples):
    with pytest.raises(ValueError):
        export_curve(crossing_triples[0], CurveKind.CDF, 2, 1)


def test_csv_rendering(jumpy_pair):
    sample = export_curve(jumpy_pair[0], CurveKind.QUANTILE, 3, 5)
    text = curve_sample_csv(sample)
    lines = text.split("\n")
    assert lines[0] == "t,value"
    assert lines[1] == "0,0"
    assert lines[4] == "0.75,0.3125"
    assert text.endswith("\n") and "\r" not in text


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_compare_confirms(files, capsys):
    code = run_cli(["compare", "--order", "3", "--relation", "isd",
                    files["x31"], files["y31"]])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["relation"] == "LeftDominated"
    assert doc["result"]["strict"] is True


def test_cli_compare_equivalent_exits_one(files, capsys):
    code = run_cli(["compare", "--order", "1", "--relation", "sd",
                    files["x31"], files["x31"]])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["result"]["relation"] == "Equivalent"


def test_cli_moments(files, capsys):
    code = run_cli(["moments", "--upto", "3", files["x34"]])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["mu_1_2"] == "53/20"
    assert doc["result"]["mu_1_3"] == "83/40"


def test_cli_moments_upto_the_bound(files, capsys):
    assert run_cli(["moments", "--upto", "13", files["x34"]]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert len(result) == 26 and "mu_1_13" in result and "moment_13" in result


def test_cli_transform(files, capsys):
    code = run_cli(["transform", "--kind", "quantile", "--order", "3", files["x31"]])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["pieces"][-1]["coefficients"] == ["5/4", "-5/1", "5/1"]


def test_cli_asymptote(files, capsys):
    code = run_cli(["asymptote", "--order", "2", files["x31"]])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["coefficients"] == ["-5/1", "1/1"]
    assert doc["result"]["side"] == "LowerEven"


def test_cli_filter(files, capsys):
    code = run_cli(["filter", "--order", "3", files["x31"], files["y31"]])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["sd_moment"]["outcome"] == "RefutesLeftDominance"
    assert doc["result"]["isd_orderstat"]["outcome"] == "Inconclusive"


def test_cli_noise_search_found(tmp_path, capsys, mps_pair):
    spread, base = mps_pair
    pb = tmp_path / "base.json"
    ps = tmp_path / "spread.json"
    dump_distribution(base, str(pb))
    dump_distribution(spread, str(ps))
    code = run_cli(["noise-search", "--order", "2", str(pb), str(ps)])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["status"] == "Found"
    assert doc["result"]["gamma"] == "1/2"


def test_cli_falsify(capsys):
    code = run_cli(["falsify", "--suite", "low-order-equivalence",
                    "--trials", "25", "--seed", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["passed"] is True


def test_cli_export_curve_csv(files, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = run_cli(["export-curve", "--kind", "quantile", "--order", "3",
                    "--grid", "5", "--csv-out", str(out), files["x31"]])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["result"]["points"][3]["exact_value"] == "5/16"
    content = out.read_text()
    assert content.startswith("t,value\n")


def test_cli_deterministic_output(files, capsys):
    args = ["compare", "--order", "4", "--relation", "isd", files["x34"], files["y34"]]
    run_cli(args)
    first = capsys.readouterr().out
    run_cli(args)
    second = capsys.readouterr().out
    assert first == second


def test_cli_usage_error(capsys):
    assert run_cli(["compare", "--order", "3"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["export-curve", "--kind", "cdf", "--order", "2", "--grid", "1", "{x}"],
        ["falsify", "--suite", "fishburn", "--denominator-cap", "0"],
        ["falsify", "--suite", "fishburn", "--trials", "-5"],
        ["moments", "--upto", "-3", "{x}"],
        ["noise-search", "--order", "2", "--max-candidates", "-1", "{x}", "{y}"],
        ["noise-search", "--order", "2", "--support-cap", "0", "{x}", "{y}"],
        ["noise-search", "--order", "2", "--spread", "0", "{x}", "{y}"],
        ["moments", "--upto", "two", "{x}"],
        ["moments", "--upto", "14", "{x}"],
    ],
)
def test_cli_rejects_out_of_range_counts(args, files, capsys):
    argv = [a.format(x=files["x31"], y=files["y31"]) for a in args]
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "error: argument" in err


def test_cli_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"atoms": [{"value": "0", "mass": "0.3"}]}')
    code = run_cli(["moments", "--upto", "2", str(bad)])
    assert code == 2
    assert "error" in capsys.readouterr().err
