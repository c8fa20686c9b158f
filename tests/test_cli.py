import json

import numpy as np
import pytest

from cubelike.cli import JobSpec, check_reference_case, main, run, run_table
from cubelike.fixtures import REFERENCE_TABLE, ReferenceCase
from cubelike.pst_analyzer import classify
from cubelike.walk_oracle import verify_result


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# pst
# ---------------------------------------------------------------------------

def test_pst_text_is_one_based(capsys):
    code, out, err = invoke(capsys, "pst", "--weights", "0,1,-7,-10")
    assert code == 0
    assert "indexing: one-based" in out
    assert "(1, 4), (2, 3)" in out
    assert "perfect state transfer" in out
    assert err == ""


def test_pst_json_is_zero_based(capsys):
    code, out, _ = invoke(capsys, "pst", "--weights", "0,1,-7,-10", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["indexing"] == "zero-based"
    assert data["eigenvalues"] == [-16, 2, 18, -4]
    assert data["sigma"] == 3
    assert data["kind"] == "perfect_state_transfer"
    assert data["pairs"] == [[0, 3], [1, 2]]


def test_pst_periodic_row(capsys):
    code, out, _ = invoke(capsys, "pst", "--weights", "0,2,3,4,5,6,5,4", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "periodic"
    assert data["pairs"] == []
    assert data["sigma"] == 0


def test_pst_json_input_document(capsys, tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({"d": 2, "z": [0, 1, -7, -10]}))
    code, out, _ = invoke(capsys, "pst", "--input", str(doc))
    assert code == 0
    assert "(1, 4), (2, 3)" in out


def test_pst_reads_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"d": 2, "z": [0, 1, -7, -10]}'))
    code, out, _ = invoke(capsys, "pst")
    assert code == 0
    assert "(1, 4), (2, 3)" in out


def test_pst_indexing_override(capsys):
    code, out, _ = invoke(capsys, "pst", "--weights", "0,1,-7,-10", "--zero-based")
    assert code == 0
    assert "indexing: zero-based" in out
    assert "(0, 3), (1, 2)" in out


def test_pst_json_round_trip_is_byte_stable_and_reverifies(capsys):
    argv = ["pst", "--weights", "0,3,1,4,-6,0,-1,10", "--json"]
    code1, out1, _ = invoke(capsys, *argv)
    code2, out2, _ = invoke(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-stable
    data = json.loads(out1)
    z = [0, 3, 1, 4, -6, 0, -1, 10]
    result = classify(z)
    assert data["sigma"] == result.sigma.bits
    assert [tuple(p) for p in data["pairs"]] == [tuple(p) for p in result.pairs]
    assert verify_result(z, result).ok


def test_pst_non_integer_weights_is_classification_failure(capsys):
    code, out, err = invoke(capsys, "pst", "--weights", "0,0.5,0.5,0")
    assert code == 1
    assert "classification failed" in err


@pytest.mark.parametrize("flag", [["--weights", "-1,2,3,4"], ["--weights=-1,2,3,4"]])
def test_pst_negative_leading_weight(capsys, flag):
    code, out, err = invoke(capsys, "pst", *flag)
    assert (code, err) == (0, "")
    assert "eigenvalues: [8, -4, -6, -2]" in out
    assert "pairs: (1, 3), (2, 4)" in out
    code, out, err = invoke(capsys, "pst", *flag, "--json")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["eigenvalues"] == [8, -4, -6, -2]
    assert data["sigma"] == 2
    assert data["pairs"] == [[0, 2], [1, 3]]


@pytest.mark.parametrize("flag", [["--weights", "-1,2,3,4"], ["--weights=-1,2,3,4"]])
def test_eigs_negative_leading_weight(capsys, flag):
    code, out, err = invoke(capsys, "eigs", *flag)
    assert (code, err) == (0, "")
    assert out.strip() == "eigenvalues: [8, -4, -6, -2]"
    code, out, err = invoke(capsys, "eigs", "--json", *flag)
    assert (code, err) == (0, "")
    assert json.loads(out)["eigenvalues"] == [8, -4, -6, -2]


def test_negative_leading_float_weight(capsys):
    code, out, _ = invoke(capsys, "eigs", "--weights", "-.5,0.5,0.5,0.5", "--json")
    assert code == 0
    assert json.loads(out)["eigenvalues"] == [1.0, -1.0, -1.0, -1.0]


# ---------------------------------------------------------------------------
# eigs
# ---------------------------------------------------------------------------

def test_eigs_renders_integers_without_decimal_point(capsys):
    code, out, _ = invoke(capsys, "eigs", "--weights", "0,1,-7,-10")
    assert code == 0
    assert out.strip() == "eigenvalues: [-16, 2, 18, -4]"


def test_eigs_trivial_single_edge_dimension(capsys):
    code, out, _ = invoke(capsys, "eigs", "--weights", "0,0")
    assert code == 0
    assert out.strip() == "eigenvalues: [0, 0]"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_eigs_float_overflow_is_input_error(capsys):
    code, out, err = invoke(capsys, "eigs", "--weights", "1e308,1e308,0.5,0")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "overflow" in err
    assert "classification failed" not in err


def test_eigs_float_weights(capsys):
    code, out, _ = invoke(capsys, "eigs", "--weights", "0,0.5,0.5,0", "--json")
    assert code == 0
    assert json.loads(out)["eigenvalues"] == [1.0, 0.0, 0.0, -1.0]


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_claimed_pair(capsys):
    code, out, _ = invoke(capsys, "simulate", "--weights", "0,1,1,0", "--pair", "1,4")
    assert code == 0
    assert "|U(t)[4, 1]| = 1.0" in out


def test_simulate_json_zero_based(capsys):
    code, out, _ = invoke(
        capsys, "simulate", "--weights", "0,1,1,0", "--pair", "0,3", "--json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["fidelities"] == [{"modulus": 1.0, "pair": [0, 3]}]


def test_simulate_with_custom_time(capsys):
    code, out, _ = invoke(
        capsys,
        "simulate", "--weights", "0,1,1,0", "--pair", "0,3", "--time", "0.0", "--json",
    )
    assert code == 0
    assert json.loads(out)["fidelities"][0]["modulus"] == pytest.approx(0.0, abs=1e-12)


def test_simulate_accepts_non_integer_weights(capsys):
    code, out, _ = invoke(
        capsys, "simulate", "--weights", "0,0.5,0.5,0", "--pair", "0,3", "--json"
    )
    assert code == 0


def test_simulate_requires_a_pair(capsys):
    code, _, err = invoke(capsys, "simulate", "--weights", "0,1,1,0")
    assert code == 2
    assert "pair" in err


def test_simulate_pair_out_of_range(capsys):
    code, _, err = invoke(capsys, "simulate", "--weights", "0,1,1,0", "--pair", "0,4")
    assert code == 2
    assert "out of range" in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_reference_row(capsys):
    code, out, _ = invoke(capsys, "verify", "--weights", "0,50,-10,-3")
    assert code == 0
    assert "verification: PASS" in out
    assert "pair (1, 4)" in out


def test_verify_json_carries_checks(capsys):
    code, out, _ = invoke(capsys, "verify", "--weights", "0,50,-10,-3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "perfect_state_transfer"
    assert len(data["checks"]) == 2
    assert all(c["ok"] for c in data["checks"])
    assert all(f >= 1 - 1e-9 for f in data["fidelities"])


@pytest.mark.parametrize("seed", [4, 5])
def test_verify_json_large_weights_true_claim_passes(capsys, seed):
    z = np.random.default_rng(seed).integers(-10**4, 10**4 + 1, 1024)
    code, out, err = invoke(capsys, "verify", "--weights", ",".join(map(str, z)), "--json")
    assert code == 0, err
    data = json.loads(out)
    assert all(c["ok"] for c in data["checks"])
    assert min(c["fidelity_series"] for c in data["checks"]) >= 1 - 1e-9


def test_verify_true_claim_with_weights_near_1e8_passes(capsys):
    # A float product formula drifted 1.9e-8 from the spectral kernel here,
    # past the 1e-8 route agreement, and the claim failed.
    weights = (
        "27392338,2227296,-46042658,-38434116,-91805296,-84951972,-96694473,"
        "-64946542,62654048,29883150,82551116,725394,21327155,94148568,45899312,26454160"
    )
    code, out, err = invoke(capsys, "verify", "--weights", weights)
    assert code == 0, err
    assert "route agreement: max |spectral - series| = 0.000e+00" in out
    assert out.splitlines()[-1].startswith("verification: PASS")


def test_verify_periodic_row(capsys):
    code, out, _ = invoke(capsys, "verify", "--weights", "0,2,3,4,5,6,5,4")
    assert code == 0
    assert "periodic" in out
    assert "verification: PASS" in out


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        pytest.param(("pst", "--weights", "0,1,-7,-10"), 1, id="pst"),
        pytest.param(("pst", "--weights", "0,2,3,4,5,6,5,4", "--json"), 1, id="pst-periodic"),
        pytest.param(("verify", "--weights", "0,50,-10,-3"), 2, id="verify"),
        pytest.param(
            ("verify", "--weights", "0,2,3,4,5,6,5,4", "--json"), 2, id="verify-periodic"
        ),
        pytest.param(("table",), 2 * len(REFERENCE_TABLE), id="table"),
    ],
)
def test_each_request_transforms_the_weights_once(capsys, monkeypatch, argv, expected):
    # classify hands its spectrum to the CLI; only verify's own U(pi/2)
    # transforms the weights a second time.
    import cubelike.spectral_engine
    import cubelike.walk_oracle

    calls = []
    for module in (cubelike.spectral_engine, cubelike.walk_oracle):
        original = module.fwht

        def counted(values, _original=original):
            calls.append(1)
            return _original(values)

        monkeypatch.setattr(module, "fwht", counted)
    code, _, _ = invoke(capsys, *argv)
    assert code == 0
    assert len(calls) == expected


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

def test_export_cycle_graph_dot(capsys, tmp_path):
    dot = tmp_path / "c4.dot"
    code, out, _ = invoke(
        capsys, "export", "--weights", "0,1,1,0", "--dot", str(dot)
    )
    assert code == 0
    text = dot.read_text()
    assert text.startswith("graph cubelike_d2 {")
    assert '"00" -- "01" [label="1"];' in text
    assert '"01" -- "11" [label="1"];' in text
    # zero-weight class 3 and zero-weight loops are omitted
    assert '"00" -- "11"' not in text
    assert '"00" -- "00"' not in text
    assert "4 vertices, 4 edges" in out


def test_export_includes_loops_when_present(capsys, tmp_path):
    dot = tmp_path / "loops.dot"
    code, _, _ = invoke(capsys, "export", "--weights", "2,1,0,0", "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert '"00" -- "00" [label="2"];' in text
    assert '"01" -- "11"' not in text


def test_export_dimension_cap(capsys, tmp_path):
    weights = ",".join(["0"] * (1 << 9))
    code, _, err = invoke(
        capsys, "export", "--weights", weights, "--dot", str(tmp_path / "big.dot")
    )
    assert code == 2
    assert "d <= 8" in err


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

def test_table_all_rows_pass(capsys):
    code, out, _ = invoke(capsys, "table")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == len(REFERENCE_TABLE) + 1
    assert all("PASS" in line for line in lines)


def test_table_reports_mismatch_with_diff():
    good = REFERENCE_TABLE[0]
    corrupted = ReferenceCase(
        index=good.index,
        d=good.d,
        weights=good.weights,
        eigenvalues=(-16, 2, 18, -5),  # wrong last eigenvalue
        pairs_one_based=good.pairs_one_based,
    )
    ok, line = check_reference_case(corrupted)
    assert not ok
    assert "FAIL" in line and "k=3" in line
    assert "computed -4" in line and "expected -5" in line


def test_run_table_function_passes():
    code, text = run_table()
    assert code == 0
    assert text.count("PASS") == len(REFERENCE_TABLE) + 1


# ---------------------------------------------------------------------------
# usage errors and exit codes
# ---------------------------------------------------------------------------

def test_malformed_json_is_usage_error(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
    code, _, err = invoke(capsys, "pst")
    assert code == 2
    assert "invalid JSON" in err


def test_wrong_length_weights_is_usage_error(capsys):
    code, _, err = invoke(capsys, "pst", "--weights", "0,1,2")
    assert code == 2
    assert "power of two" in err or "2**d" in err


def test_inconsistent_d_is_usage_error(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"d": 3, "z": [0, 1, -7, -10]}'))
    code, _, err = invoke(capsys, "pst")
    assert code == 2
    assert '"d"' in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_both_input_and_weights_is_usage_error(capsys, tmp_path):
    doc = tmp_path / "in.json"
    doc.write_text('{"z": [0, 1, 1, 0]}')
    code, _, err = invoke(
        capsys, "pst", "--weights", "0,1,1,0", "--input", str(doc)
    )
    assert code == 2
    assert "not both" in err


def test_run_dispatch_rejects_unknown_command():
    from cubelike.cli import UsageError

    with pytest.raises(UsageError):
        run(JobSpec(command="nope", z=[0, 1, 1, 0]))


def test_time_from_json_document(capsys, tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({"z": [0, 1, 1, 0], "time": 0.0}))
    code, out, _ = invoke(
        capsys, "simulate", "--input", str(doc), "--pair", "1,1", "--json"
    )
    assert code == 0
    assert json.loads(out)["fidelities"][0]["modulus"] == pytest.approx(1.0)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_time_flag_is_usage_error(capsys, value):
    code, out, err = invoke(
        capsys, "simulate", "--weights", "0,1,1,0", "--pair", "1,4", f"--time={value}"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize(
    "value", ["NaN", "Infinity", "-Infinity", pytest.param("1" + "0" * 400, id="huge-int")]
)
def test_non_finite_time_in_json_is_usage_error(capsys, tmp_path, value):
    doc = tmp_path / "job.json"
    doc.write_text('{"z": [0, 1, 1, 0], "time": %s}' % value)
    code, out, err = invoke(capsys, "simulate", "--input", str(doc), "--pair", "1,4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "finite" in err


def test_boolean_time_in_json_is_usage_error(capsys, tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({"z": [0, 1, 1, 0], "time": True}))
    code, out, err = invoke(capsys, "simulate", "--input", str(doc), "--pair", "1,4")
    assert code == 2
    assert out == ""
    assert '"time" must be a number' in err


def test_huge_finite_time_flag_is_input_error(capsys):
    code, out, err = invoke(
        capsys, "simulate", "--weights", "0,1,1,0", "--pair", "1,4", "--time", "1e308"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "float64 range" in err


def test_huge_finite_time_in_json_is_input_error(capsys, tmp_path):
    doc = tmp_path / "job.json"
    doc.write_text(json.dumps({"z": [0, 1, 1, 0], "time": 1e308}))
    code, out, err = invoke(capsys, "simulate", "--input", str(doc), "--pair", "0,3", "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "float64 range" in err
