"""Property test of the CLI exit-code contract over generated argv.

Every generated command line must end with an exit code of the contract
(0, 2, 3 or 64) and never with an exception; a --json report must be
strict JSON (no NaN or Infinity) and pass validate_report, a non-zero exit
without --json must say why on stderr, and a reported factor must properly
divide N.  A sample report carries at least d+4 samples, and a check passes
only on at least one trial.  Inputs stay small (N <= 221, d <= 2, at most
50 trials, at most 3 attempts, radii pinned low in statevector mode, and
simulate grids of at most 2^10 points) so every example runs in well under
a second.
"""

import contextlib
import io
import json
import math

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from qfactor.cli import main, validate_report

CONTRACT_CODES = {0, 2, 3, 64}
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


def _flag(draw, argv, name, values):
    """Append `name=value` unless the draw leaves the flag out.

    The joined form lets values such as -inf reach the handler instead of
    reading as an option.
    """
    value = draw(st.none() | values)
    if value is not None:
        argv.append(f"{name}={value}")


@st.composite
def sweep_entries(draw):
    """One d:D:R sweep entry whose grid has at most 2^10 points."""
    d = draw(st.integers(-1, 3))
    D = draw(st.integers(-1, 1 << (10 // max(d, 1))))
    R = draw(st.floats(-2, 64) | NON_FINITE | st.just(0.0))
    return f"{d}:{D}:{R}"


@st.composite
def command_lines(draw):
    cmd = draw(st.sampled_from(["factor", "sample", "check", "estimate", "simulate"]))
    argv = [cmd]
    if cmd in ("factor", "sample"):
        argv += ["--n", str(draw(st.integers(-3, 221)))]
        argv += ["--d", str(draw(st.integers(-1, 2)))]
        _flag(draw, argv, "--m", st.integers(-3, 8))
        _flag(draw, argv, "--safety", st.integers(-2, 6) | st.just(2000))
    if cmd == "factor":
        argv += ["--max-attempts", str(draw(st.integers(-1, 3)))]
        if draw(st.booleans()):
            # the statevector grid is D^d cells, so its radius stays small
            argv += ["--mode", "statevector", "--radius", str(draw(st.integers(-1, 16)))]
        else:
            _flag(draw, argv, "--radius", st.integers(-1, 1024))
    elif cmd == "check":
        argv += ["--suite", draw(st.sampled_from(
            ["all", "none", "separation", "generation", "short-cover", "tail", "poisson", "bogus"]
        ))]
        argv += ["--trials", str(draw(st.integers(-2, 50)))]
    elif cmd == "estimate":
        numbers = st.lists(st.integers(-2, 4096), min_size=1, max_size=3)
        n_values = draw(numbers.map(lambda xs: ",".join(map(str, xs))) | st.just("abc"))
        argv += ["--n-values", n_values]
        _flag(draw, argv, "--d", st.integers(-1, 64))
        _flag(draw, argv, "--log2d", st.floats(-2, 64) | NON_FINITE | st.floats())
        _flag(draw, argv, "--eps-values", st.sampled_from(["0", "0,0.25,0.5", "0.75", "-1", "x"]))
        _flag(draw, argv, "--c", st.floats(-1, 8) | NON_FINITE | st.floats())
    elif cmd == "simulate":
        argv += ["--n", str(draw(st.integers(-3, 35)))]
        entries = st.lists(sweep_entries(), max_size=2).map(";".join)
        argv += ["--sweep", draw(entries | st.sampled_from(["1:8", "x:8:4"]))]
        argv += ["--trials", str(draw(st.integers(-2, 50)))]
    _flag(draw, argv, "--seed", st.integers(-2, 2**32))
    if draw(st.booleans()):
        argv.append("--json")
    return argv


def _refuse_constant(name):
    raise ValueError(f"report carries the non-JSON constant {name}")


def _factor_of(report, stdout):
    if report is not None:
        return report["results"]["factor"]
    return int(stdout.strip())


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
@example(["factor", "--n", "89"])
@example(["factor", "--n", "35", "--d", "1", "--max-attempts", "0"])
@example(["estimate", "--n-values", "4", "--c=nan", "--json"])
@example(["estimate", "--n-values", "4", "--log2d=inf", "--json"])
@example(["estimate", "--n-values", "4", "--c=1e308", "--json"])
@example(["simulate", "--n", "15", "--sweep", "1:2:nan", "--trials", "1"])
# sizes past a limit: a pinned radius, the radius selection, the box, the mass
@example(["factor", "--n", "77", "--d", "2", "--radius", "1" + "0" * 400])
@example(["factor", "--n", "77", "--d", "2", "--m", "2100"])
@example(["sample", "--n", "77", "--d", "2", "--m", "3000"])
@example(["simulate", "--n", "77", "--sweep", "1:16:1e308"])
@example(["simulate", "--n", "77", "--sweep", "2:16:1e307"])
@example(["simulate", "--n", "77", "--sweep", "1:2:64", "--json"])
# the witness bound at a 1199-bit N, and the recovery recheck at a pinned radius
@example(["factor", "--n", str((4**600 - 1) // 3), "--d", "1"])
@example(["sample", "--n", str((4**600 - 1) // 3), "--d", "1"])
@example(["factor", "--n", "221", "--d", "1", "--m", "3000", "--radius", "16", "--max-attempts", "0"])
@example(["factor", "--n", "77", "--d", "2", "--m", "2100", "--radius", "16"])
# a negative safety margin, and one whose radius is refused before it is built
@example(["factor", "--n", "35", "--d", "1", "--safety", "-40"])
@example(["factor", "--n", "35", "--d", "1", "--safety", "1000000000000"])
def test_cli_contract_holds_for_generated_argv(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in CONTRACT_CODES, (argv, code, err.getvalue())
    if code != 0 and "--json" not in argv:
        assert err.getvalue().strip(), (argv, code)
    report = None
    if "--json" in argv and out.getvalue():
        report = json.loads(out.getvalue(), parse_constant=_refuse_constant)
        validate_report(report)
        assert report["command"] == argv[0]
    if report is not None and argv[0] == "sample" and code == 0:
        # the recovery needs at least d+4 samples
        d = report["config"]["d"]
        assert len(report["results"]["samples"]) == report["config"]["m"] >= d + 4
    if argv[0] == "check" and code == 0:
        # a suite cannot pass on no evidence
        assert int(argv[argv.index("--trials") + 1]) >= 1
    if argv[0] == "factor" and code == 0:
        N = int(argv[argv.index("--n") + 1])
        factor = _factor_of(report, out.getvalue())
        assert 1 < factor < N and N % factor == 0, (argv, factor)
