import dataclasses
import hashlib
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfactor import checks
from qfactor.arith import FactorFound, ParameterError, ResourceLimitError
from qfactor.cli import build_parser, json_text, main, validate_report, load_schema
from qfactor.gauss import GaussParams
from qfactor.pipeline import PipelineConfig


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor_oracle_prints_factor(capsys):
    code, out, _ = run_cli(capsys, ["factor", "--n", "15", "--d", "1", "--mode", "oracle", "--seed", "7"])
    assert code == 0
    assert int(out.strip()) in (3, 5)


def test_factor_20_bit_modulus(capsys, tmp_path):
    # 1022117 = 1009 * 1013 at d = 5: a subgroup of 255,024 elements
    out = tmp_path / "report.json"
    code, printed, _ = run_cli(capsys, ["factor", "--n", "1022117", "--d", "5", "--seed", "1", "--out", str(out)])
    assert code == 0
    assert printed.strip() == "1013"
    report = json.loads(out.read_text())
    assert report["results"]["transcript"]["lattice"]["det"] == 255024
    # the BFS construction of the lattice gave the same transcript
    body = {k: v for k, v in report.items() if k != "timings"}
    assert hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest() == (
        "b2fa99d0e105160efdfa86561276397241328e64614fda91cea36aeb7d81e82f"
    )


def test_factor_certifies_at_the_paper_witness_bound(capsys, tmp_path):
    # 1022117 = 1009 * 1013 at d = 6: the bound is ceil(sqrt(6) 2^(20/6)) + 1 = 26
    out = tmp_path / "report.json"
    code, printed, _ = run_cli(capsys, ["factor", "--n", "1022117", "--d", "6", "--seed", "1", "--out", str(out)])
    assert (code, printed.strip()) == (0, "1013")
    witness = json.loads(out.read_text())["results"]["transcript"]["witness"]
    assert witness["bound"] == 26 and witness["found"]


def test_factor_certifies_past_the_ball_the_node_cap_refuses(capsys):
    # 10403 = 101 * 103 at d = 10: the whole ball of the paper's bound takes
    # more than ENUM_CAP nodes, but the witness, of norm^2 3, lies in the first
    # ball walked
    assert run_cli(capsys, ["factor", "--n", "10403", "--d", "10", "--seed", "1"]) == (0, "103\n", "")


@pytest.mark.parametrize("argv, message", [
    # a 1199-bit N at d = 1: the witness (-600,) is certified in the first
    # ball, and the radius the scaling relation then asks for passes 2^1024
    (["factor", "--n", str((4**600 - 1) // 3), "--d", "1"],
     "the radius for m = 5 and safety margin 2^4 is at least 2^1024"),
    (["factor", "--n", "221", "--d", "1", "--m", "480", "--radius", "16"],
     "extended lattice dimension d + m = 481 exceeds cap 128"),
], ids=["witness-bound", "dimension"])
def test_a_run_past_a_limit_exits_2_before_any_sample(capsys, monkeypatch, argv, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("an extended lattice was built")

    monkeypatch.setattr("qfactor.pipeline.build_extended_lattice", unreachable)
    assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


class _Count(int):
    def __repr__(self):
        return "Count()"


class _Share(float):
    def __repr__(self):
        return "Share()"


_REPORT_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200) | st.integers(max_value=-(2**64)),
    st.integers().map(_Count),
    st.floats(),
    st.floats().map(_Share),
    st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf]),
    st.text(),
    st.sampled_from(['"quoted"', "back\\slash", "\x00\x1f\x7f\n\t", "\u00e9\u20ac\U0001f600", ""]),
)
_REPORT_VALUES = st.recursive(
    _REPORT_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_REPORT_VALUES)
def test_json_text_writes_the_bytes_of_json_dumps(value):
    assert json_text(value) == json.dumps(value, sort_keys=True, indent=2)


def test_json_text_refuses_what_json_dumps_refuses():
    # a report is written as it is: a value that is not plain JSON fails
    # loudly instead of being converted
    refused = (
        object(), {"x": [1, {2, 3}]}, np.int64(7), Fraction(3, 4), np.bool_(True), np.arange(3),
        GaussParams(R=4.0, D=16, d=1),
    )
    for value in refused:
        with pytest.raises(TypeError):
            json.dumps(value, sort_keys=True, indent=2)
        with pytest.raises(TypeError):
            json_text(value)


def test_factor_even_resolved_by_precheck(capsys):
    code, out, _ = run_cli(capsys, ["factor", "--n", "16"])
    assert code == 0
    assert out.strip() == "2"


def test_factor_zero_attempts_exit_3(capsys):
    code, _, _ = run_cli(capsys, ["factor", "--n", "15", "--d", "1", "--max-attempts", "0"])
    assert code == 3


def test_factor_assumption_violated_exit_2(capsys):
    code, _, _ = run_cli(capsys, ["factor", "--n", "33", "--d", "1"])
    assert code == 2


def test_usage_error_exit_64(capsys):
    code, _, _ = run_cli(capsys, ["factor", "--bogus"])
    assert code == 64
    code, _, _ = run_cli(capsys, ["factor"])  # --n is required
    assert code == 64


@pytest.mark.parametrize("argv", [
    ["factor", "--n", "77", "--max-attempts", "-1"],
    ["sample", "--n", "35", "--d", "1", "--seed", "-5"],
    ["estimate", "--n-values", "1"],
    ["estimate", "--n-values", "abc"],
])
def test_bad_values_exit_64_without_traceback(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 64
    assert err.startswith("error: ")


@pytest.mark.parametrize("m", ["-3", "0", "2"])
def test_sample_m_below_d_plus_4_exit_2_like_factor(capsys, m):
    for cmd in ("sample", "factor"):
        code, out, err = run_cli(capsys, [cmd, "--n", "35", "--d", "1", "--m", m])
        assert code == 2
        assert out == ""
        assert err == "error: m must be at least d + 4\n"


@pytest.mark.parametrize("argv, reason", [
    (["sample", "--n", "89"], "89 is prime"),
    (["sample", "--n", "21", "--d", "2"], "3 divides 21"),
    (["sample", "--n", "16"], "2 divides 16"),
    (["sample", "--n", "9"], "3 divides 9"),
])
def test_sample_stops_before_sampling_like_factor(capsys, argv, reason):
    # sample runs factor's preparation, so a prime or an early factor ends it
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {reason}") and err.count("\n") == 1


@pytest.mark.parametrize("extra", [["--d", "3"], ["--log2d", "10"], ["--d", "3", "--log2d", "10"]])
def test_estimate_eps_values_refuses_d_and_log2d(capsys, monkeypatch, extra):
    def refuse(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr("qfactor.cli.estimate_gate_cost", refuse)
    monkeypatch.setattr("qfactor.cli.tradeoff_rows", refuse)
    code, out, err = run_cli(capsys, ["estimate", "--n-values", "256", "--eps-values", "0.25", *extra])
    assert (code, out) == (64, "")
    assert err.startswith("error: --eps-values") and err.count("\n") == 1


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_check_trials_below_one_exit_64_before_any_suite(capsys, monkeypatch, trials):
    def refuse(*args, **kwargs):
        raise AssertionError("a suite ran")

    monkeypatch.setattr("qfactor.checks.run_suites", refuse)
    code, out, err = run_cli(capsys, ["check", "--suite", "poisson", "--trials", trials, "--json"])
    assert code == 64
    assert out == ""
    assert err.startswith("error: --trials")


@pytest.mark.parametrize("radius", ["0", "-4"])
def test_factor_radius_below_one_exit_64(capsys, radius):
    code, out, err = run_cli(capsys, ["factor", "--n", "35", "--d", "1", "--radius", radius])
    assert code == 64
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["factor", "--n", "35", "--d", "1", "--safety", "2000"],
    ["factor", "--n", "35", "--d", "1", "--safety", "300"],
    ["factor", "--n", "35", "--d", "1", "--radius", str(10**21)],
    ["sample", "--n", "35", "--d", "1", "--safety", "2000"],
    ["simulate", "--n", "77", "--sweep", "1:2:64", "--json"],  # masses between cells underflow
])
def test_oversized_radius_exit_2_without_traceback(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error: ")


def test_estimate_bit_length_below_two_exit_64(capsys):
    code, _, err = run_cli(capsys, ["estimate", "--n-values", "0"])
    assert code == 64
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv, code, reason", [
    (["factor", "--n", "89"], 2, "89 is prime"),
    (["factor", "--n", "35", "--d", "1", "--max-attempts", "0"], 3, "no factor after 0 attempts"),
    (["factor", "--n", "33", "--d", "1"], 2, "no relation vector outside the sign sublattice"),
])
def test_factor_says_why_it_found_no_factor(capsys, argv, code, reason):
    got, out, err = run_cli(capsys, argv)
    assert (got, out) == (code, "")
    assert err.startswith(f"error: {reason}") and err.count("\n") == 1
    # with --json the report is the answer and stderr stays quiet
    got, out, err = run_cli(capsys, argv + ["--json"])
    assert got == code and err == ""
    assert json.loads(out)["results"]["outcome"] != "factored"


def test_check_failure_says_which_suite_failed(capsys, monkeypatch):
    monkeypatch.setattr("qfactor.checks.run_suites", lambda names, trials, seed: {
        "suites": [{"name": "tail", "passed": False}, {"name": "poisson", "passed": True}],
        "passed": False,
    })
    code, out, err = run_cli(capsys, ["check", "--suite", "all"])
    assert code == 2
    assert out == "tail: FAIL\npoisson: pass\n"
    assert err == "error: failed suites: tail\n"


@pytest.mark.parametrize("flag", [
    "--c=nan", "--c=inf", "--c=-inf", "--c=0", "--c=-1",
    "--log2d=nan", "--log2d=inf", "--log2d=-inf",
])
def test_estimate_non_finite_or_non_positive_inputs_exit_64(capsys, monkeypatch, flag):
    def refuse(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr("qfactor.cli.estimate_gate_cost", refuse)
    monkeypatch.setattr("qfactor.cli.tradeoff_rows", refuse)
    for extra in ([], ["--eps-values", "0.25"]):
        code, out, err = run_cli(capsys, ["estimate", "--n-values", "4", flag, *extra, "--json"])
        assert (code, out) == (64, "")
        assert err.startswith("error: --")


@pytest.mark.parametrize("argv", [
    ["estimate", "--n-values", "4", "--c", "1e308"],
    ["estimate", "--n-values", "4", "--log2d", "1e308"],
    ["estimate", "--n-values", str(10**200)],
])
def test_estimate_overflow_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--json"])
    assert (code, out) == (2, "")
    assert err.startswith("error: the cost model overflows")


@pytest.mark.parametrize("argv", [
    ["--sweep", "x:8:4"],
    ["--sweep", "1:8"],
    ["--sweep", "1:8:4:2"],
    ["--sweep", "1:8:4", "--trials", "0"],
    ["--sweep", "", "--trials", "-1"],
])
def test_simulate_bad_sweep_or_trials_exit_64_before_any_state(capsys, monkeypatch, argv):
    def refuse(*args, **kwargs):
        raise AssertionError("a state was built")

    monkeypatch.setattr("qfactor.qsim.build_gaussian_state", refuse)
    code, out, err = run_cli(capsys, ["simulate", "--n", "15", *argv])
    assert (code, out) == (64, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("R", ["nan", "inf", "0.001", "1e-300", "5e-324"])
def test_simulate_unusable_radius_exit_2(capsys, R):
    code, out, err = run_cli(capsys, ["simulate", "--n", "15", "--sweep", f"1:8:{R}", "--trials", "5"])
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


def test_json_report_validates_and_is_deterministic(capsys):
    argv = ["factor", "--n", "77", "--d", "1", "--seed", "42", "--json"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    r1, r2 = json.loads(out1), json.loads(out2)
    validate_report(r1)
    r1.pop("timings")
    r2.pop("timings")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_report_written_to_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, ["factor", "--n", "15", "--d", "1", "--seed", "1", "--out", str(out_path)]
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    validate_report(report)
    assert report["command"] == "factor"
    assert report["results"]["factor"] in (3, 5)
    assert report["results"]["transcript"]["parameters"]["recheck"]["holds"] is True
    # serialization round-trips losslessly
    assert json.loads(json.dumps(report)) == report


@pytest.mark.parametrize("argv, text", [
    (["factor", "--n", "15", "--d", "1", "--seed", "1"], "3\n"),
    (["simulate", "--n", "15", "--sweep", "1:16:4", "--trials", "10"],
     "d=1 D=16 R=4.0: l1=2.612e-06 gap=2.076e-06\n"),
    (["sample", "--n", "77", "--d", "1", "--seed", "5"], "[87381]\n[104858]\n[78643]\n[78643]\n[52428]\n"),
    (["estimate", "--n-values", "256"], "n=256 d=16: total=8.311e+04\n"),
    (["check", "--suite", "poisson", "--trials", "10"], "poisson: pass\n"),
], ids=["factor", "simulate", "sample", "estimate", "check"])
def test_every_subcommand_takes_the_one_report_path(tmp_path, capsys, argv, text):
    # main writes every report: --json prints the bytes written to --out,
    # and without --json the handler's lines are the whole of stdout
    out_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, [*argv, "--json", "--out", str(out_path)])
    assert (code, err) == (0, "")
    assert out == out_path.read_text()
    report = json.loads(out)
    validate_report(report)
    assert report["command"] == argv[0]
    assert run_cli(capsys, argv) == (0, text, "")


def test_config_file_merging(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d = 1\nseed = 9\nmax-attempts = 5\n# comment\n")
    code, out, _ = run_cli(capsys, ["factor", "--n", "15", "--config", str(cfg), "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["config"]["d"] == 1
    assert report["config"]["max_attempts"] == 5
    assert report["seed"] == 9
    # flags win over the file
    code, out, _ = run_cli(
        capsys, ["factor", "--n", "15", "--config", str(cfg), "--seed", "3", "--json"]
    )
    assert json.loads(out)["seed"] == 3


@pytest.mark.parametrize("argv,line", [
    (["factor", "--n", "35", "--d", "1"], "safety = abc"),
    (["factor", "--n", "35"], "d = 1.5"),
    (["check", "--suite", "poisson"], "trials = x"),
    (["sample", "--n", "77", "--d", "1"], "mode = oracle"),  # not a flag of sample
    (["factor", "--n", "35", "--d", "1"], "max = 5"),  # only a prefix of --max-attempts
    (["check", "--suite", "none"], "seed = \udcff"),  # the byte 0xff: not UTF-8
])
def test_config_file_bad_key_or_value_exit_64(tmp_path, capsys, argv, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes((line + "\n").encode("utf-8", "surrogateescape"))
    code, out, err = run_cli(capsys, [*argv, "--config", str(cfg)])
    assert code == 64
    assert out == ""
    assert "error:" in err
    assert "Traceback" not in err


def test_config_file_values_parse_as_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite = poisson\ntrials = 3\nseed = 4\n")
    code, out, _ = run_cli(capsys, ["check", "--config", str(cfg), "--seed", "6", "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["config"] == {"suite": "poisson", "trials": 3}
    assert report["seed"] == 6


def test_simulate_sweep(capsys):
    code, out, _ = run_cli(
        capsys, ["simulate", "--n", "77", "--sweep", "1:16:4", "--trials", "200", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    validate_report(report)
    entry = report["results"]["configs"][0]
    assert entry["z1_bounds_pass"] is True
    assert entry["gap_pass"] is True
    assert entry["l1_distance"] < 1e-3


def test_simulate_empty_sweep(capsys):
    code, out, _ = run_cli(capsys, ["simulate", "--sweep", "", "--json"])
    assert code == 0
    assert json.loads(out)["results"]["configs"] == []


def test_simulate_guard_exit_2(capsys):
    code, _, err = run_cli(capsys, ["simulate", "--n", "77", "--sweep", "3:256:64"])
    assert code == 2


def test_sample_command(capsys):
    code, out, _ = run_cli(capsys, ["sample", "--n", "77", "--d", "1", "--seed", "5", "--json"])
    assert code == 0
    report = json.loads(out)
    validate_report(report)
    samples = report["results"]["samples"]
    assert len(samples) == 5  # d + 4
    D = report["results"]["D"]
    for s in samples:
        assert all(0 <= k < D for k in s["w_indices"])


def test_sample_reproduces_first_factor_attempt(capsys):
    # sample and factor share one sampling path: same seed, same draws
    _, out, _ = run_cli(capsys, ["sample", "--n", "221", "--d", "2", "--seed", "5", "--json"])
    sampled = json.loads(out)["results"]
    _, out, _ = run_cli(capsys, ["factor", "--n", "221", "--d", "2", "--seed", "5", "--json"])
    transcript = json.loads(out)["results"]["transcript"]
    assert transcript["parameters"]["R"] == sampled["R"]
    assert transcript["attempts"][0]["samples"] == sampled["samples"]


def test_estimate_single_point(capsys):
    code, out, _ = run_cli(
        capsys, ["estimate", "--n-values", "256", "--d", "16", "--log2d", "24", "--json"]
    )
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert len(rows) == 1
    assert rows[0]["total"] == pytest.approx(sum(rows[0]["terms"].values()))


def test_estimate_doubling_ratio(capsys):
    code, out, _ = run_cli(
        capsys, ["estimate", "--n-values", "1024,4096,16384", "--json"]
    )
    rows = json.loads(out)["results"]["rows"]
    for row in rows[1:]:
        assert 8.0 <= row["ratio_to_previous"] <= 12.0  # ~4^{3/2} with log slack


def test_estimate_epsilon_sweep(capsys):
    code, out, _ = run_cli(
        capsys, ["estimate", "--n-values", "4096", "--eps-values", "0,0.25,0.5", "--json"]
    )
    rows = json.loads(out)["results"]["rows"]
    assert [r["epsilon"] for r in rows] == [0.0, 0.25, 0.5]


def test_check_none_suite(capsys):
    code, out, _ = run_cli(capsys, ["check", "--suite", "none", "--json"])
    assert code == 0
    assert json.loads(out)["results"]["suites"] == []


def test_check_poisson_suite(capsys):
    code, out, _ = run_cli(capsys, ["check", "--suite", "poisson", "--json"])
    assert code == 0
    report = json.loads(out)
    validate_report(report)
    assert report["results"]["passed"] is True


def test_check_unknown_suite_usage_error(capsys):
    code, _, err = run_cli(capsys, ["check", "--suite", "nonsense"])
    assert code == 64
    assert err == (
        "error: unknown suite 'nonsense'; options: "
        "['generation', 'poisson', 'separation', 'short-cover', 'tail']\n"
    )


def test_check_fault_inside_a_suite_is_not_a_usage_error(monkeypatch):
    # a suite that reads a missing key is a bug: it propagates, and is not
    # reported as an unknown suite with exit 64
    monkeypatch.setitem(checks.SUITES, "poisson", lambda trials, seed: {}["missing"])
    with pytest.raises(KeyError, match="missing"):
        main(["check", "--suite", "poisson", "--trials", "3"])


@pytest.mark.parametrize("argv", [["check", "--suite", "none"], ["factor", "--n", "15", "--d", "1", "--json"]])
def test_unwritable_out_path_exit_64_after_the_run(tmp_path, capsys, argv):
    for out_path in (str(tmp_path / "missing" / "report.json"), ""):
        code, out, err = run_cli(capsys, [*argv, f"--out={out_path}"])
        assert (code, out) == (64, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"'{out_path}'" in err


def test_pipeline_config_fields_are_the_factor_flags():
    # a field no flag sets is a knob users cannot reach, yet every factor
    # report would still carry it in its config block
    factor = build_parser().subcommands["factor"]
    dests = {action.dest for action in factor._actions} - {"help", "out", "config", "json"}
    renamed = {"n": "N", "radius": "radius_override"}
    assert {renamed.get(dest, dest) for dest in dests} == {
        field.name for field in dataclasses.fields(PipelineConfig)
    }


STATEVECTOR_SWEEP = ["simulate", "--n", "77", "--sweep", "1:16:4", "--trials", "5"]


@pytest.mark.parametrize("constant, value, argv, message", [
    ("qfactor.relattice.GROUP_CAP", 4, ["factor", "--n", "77", "--d", "2"], "subgroup exceeds cap 4"),
    ("qfactor.qsim.STATEVECTOR_GUARD", 8, STATEVECTOR_SWEEP, "state size 16^1 exceeds"),
    ("qfactor.qsim.STATEVECTOR_GUARD", 16, STATEVECTOR_SWEEP, "wrapped state"),
    ("qfactor.qsim.STATEVECTOR_GUARD", 1 << 16,
     ["factor", "--n", "91", "--d", "1", "--mode", "statevector", "--seed", "1"], "joint state"),
    ("qfactor.gauss.TABLE_CAP", 16, STATEVECTOR_SWEEP, "mixture table"),
], ids=["group", "statevector", "wrapped-state", "joint-state", "table"])
def test_resource_caps_exit_2(capsys, monkeypatch, constant, value, argv, message):
    # at the real caps every run here succeeds; one cap lowered refuses it
    monkeypatch.setattr(constant, value)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("callee, error, argv", [
    ("qfactor.cli.run_factoring", ParameterError("planted"), ["factor", "--n", "35", "--d", "1"]),
    ("qfactor.cli.prepare", ResourceLimitError("planted"), ["sample", "--n", "35", "--d", "1"]),
    ("qfactor.qsim.build_gaussian_state", FactorFound(15, 3, "planted"), STATEVECTOR_SWEEP),
    ("qfactor.checks.run_suites", ParameterError("planted"), ["check", "--suite", "poisson"]),
    ("qfactor.cli.estimate_gate_cost", ResourceLimitError("planted"), ["estimate", "--n-values", "256"]),
], ids=["factor", "sample", "simulate", "check", "estimate"])
def test_an_error_inside_any_handler_exits_2_with_one_error_line(capsys, monkeypatch, callee, error, argv):
    # every handler raises; only main turns the exception into an exit code
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(callee, fail)
    for extra in ([], ["--json"]):
        code, out, err = run_cli(capsys, [*argv, *extra])
        assert (code, out) == (2, "")
        assert err == f"error: {error}\n"


def test_schema_file_loads():
    schema = load_schema()
    assert schema["properties"]["schema_version"]["const"] == 1
    with pytest.raises(ValueError):
        validate_report({"schema_version": 1})
