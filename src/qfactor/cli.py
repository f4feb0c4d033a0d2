"""Command-line front end and JSON report emitter.

Subcommands: factor, simulate, sample, estimate, check.  Exit codes are a
stable contract: 0 success, 2 assumption or guard violation, 3 attempts
exhausted, 64 usage.  A --config file holds `key = value` lines; each is
read as the flag --key=value placed before the command line's own flags, so
explicit flags win and every value goes through its flag's type.  Handlers
raise; one map in `main` turns an exception into its exit code and one
error: line.  A UsageError or an OSError exits 64: flags or a config file
that do not parse (including a config file that is not UTF-8 text, a config
key that is not a flag of the subcommand, or a value its flag rejects), a
negative seed, factor settings that PipelineConfig rejects (such as a
negative attempt count or radius), a check or simulate run with fewer than
one trial, a simulate sweep that does not parse, estimate lists that are
not numbers or are out of range, an estimate --c or --log2d that is not
finite (or a --c that is not positive), an estimate --eps-values given with
--d or --log2d (the sweep picks both itself), and, found only after the
run, an --out path that cannot be written.  A ParameterError,
ResourceLimitError or FactorFound raised once a run has started (such as
--d 0, --m below d+4, or a radius, sweep or estimate that overflows a
float) exits 2.  Without --json, every non-zero exit writes an error: line
to stderr.  Identical flags and seed produce byte-identical JSON up to the
timings block.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import asdict
from importlib import resources
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

from . import checks, gauss, qsim
from .arith import FactoringInstance, FactorFound, ParameterError, ResourceLimitError
from .pipeline import (
    ATTEMPTS_EXHAUSTED,
    FACTORED,
    REJECTED_PRIME,
    FactoringOutcome,
    PipelineConfig,
    certify_assumption,  # not called here; kept bound for perfbench's tracer
    draw_samples,
    estimate_gate_cost,
    prepare,
    run_factoring,
    tradeoff_rows,
)
from .relattice import build_relation_lattice, dual_cosets

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VIOLATION = 2
EXIT_EXHAUSTED = 3
EXIT_USAGE = 64


class UsageError(Exception):
    """A command line the CLI refuses: exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def make_report(command: str, seed, config: dict, results: dict, started: float) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "config": config,
        "results": results,
        "timings": {"total_s": time.perf_counter() - started},
    }


def load_schema() -> dict:
    with resources.files("qfactor").joinpath("report_schema.json").open() as fh:
        return json.load(fh)


def validate_report(report: dict) -> None:
    """Structural validation against the published schema."""
    schema = load_schema()
    required = schema["required"]
    for key in required:
        if key not in report:
            raise ValueError(f"report is missing required key {key!r}")
    extra = set(report) - set(schema["properties"])
    if extra:
        raise ValueError(f"report has unknown keys {sorted(extra)}")
    if report["schema_version"] != SCHEMA_VERSION:
        raise ValueError("schema_version mismatch")
    if report["command"] not in schema["properties"]["command"]["enum"]:
        raise ValueError("unknown command")
    if not isinstance(report["config"], dict) or not isinstance(report["results"], dict):
        raise ValueError("config and results must be objects")
    if "total_s" not in report["timings"]:
        raise ValueError("timings must carry total_s")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _json_lines(obj, parts: list, newline: str) -> None:
    """Append the text of obj as json.dumps(obj, sort_keys=True, indent=2)
    writes it, nested at `newline` (a newline and the enclosing indent).
    json.dumps falls back to its generator-based pure-Python encoder when
    indent is set; this one recursive pass writes the same bytes in less
    than half its time."""
    if isinstance(obj, str):
        parts.append(_json_string(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        parts.append(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            parts.append(sep)
            _json_lines(item, parts, inner)
            sep = "," + inner
        parts.append(newline + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            parts.append(sep + _json_string(key) + ": ")
            _json_lines(obj[key], parts, inner)
            sep = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def json_text(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) for a report's plain values."""
    parts: list[str] = []
    _json_lines(obj, parts, "\n")
    return "".join(parts)


def emit(report: dict, args) -> None:
    text = json_text(report)
    if getattr(args, "out", None) is not None:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if getattr(args, "json", False):
        print(text)


def _config_flags(path: str, options) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` flags.

    A key is a flag name without its dashes (`max-attempts` or
    `max_attempts`) and must name one of `options` exactly; the value is
    left for the flag's own type to parse.
    """
    flags = []
    with open(path, encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError:
            raise UsageError(f"config file {path} is not UTF-8 text") from None
        for raw in lines:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            flag = "--" + key.replace("_", "-")
            if flag not in options:
                raise UsageError(f"config key {key!r} is not a flag of this subcommand")
            flags.append(f"{flag}={val}")
    return flags


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=0, help="64-bit master seed")
    p.add_argument("--out", type=str, default=None, help="write the JSON report here")
    p.add_argument("--config", type=str, default=None, help="key=value file, lower precedence than flags")
    p.add_argument("--json", action="store_true", help="print the JSON report to stdout")


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="qfactor", description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("factor", parents=[], help="factor N end to end")
    f.add_argument("--n", type=int, required=True, help="odd composite modulus (decimal)")
    f.add_argument("--d", type=int, default=None)
    f.add_argument("--m", type=int, default=None)
    f.add_argument("--mode", choices=["oracle", "statevector"], default="oracle")
    f.add_argument("--max-attempts", type=int, default=50, dest="max_attempts")
    f.add_argument("--safety", type=int, default=4)
    f.add_argument("--radius", type=int, default=None, help="override the selected radius")
    _add_common(f)

    s = sub.add_parser("simulate", help="statevector sweep with all distribution checks")
    s.add_argument("--n", type=int, default=77)
    s.add_argument("--sweep", type=str, default="1:16:4", help="semicolon-separated d:D:R triples; empty for none")
    s.add_argument("--trials", type=int, default=2000, help="concentration trials per config")
    _add_common(s)

    sa = sub.add_parser("sample", help="emit oracle samples of the output distribution")
    sa.add_argument("--n", type=int, required=True)
    sa.add_argument("--d", type=int, default=None)
    sa.add_argument("--m", type=int, default=None, help="number of samples (default d+4)")
    sa.add_argument("--safety", type=int, default=4)
    _add_common(sa)

    e = sub.add_parser("estimate", help="evaluate the circuit-size model")
    e.add_argument("--n-values", type=str, default="256", dest="n_values")
    e.add_argument("--d", type=int, default=None)
    e.add_argument("--log2d", type=float, default=None, help="explicit log2 of the grid size")
    e.add_argument("--eps-values", type=str, default=None, dest="eps_values")
    e.add_argument("--c", type=float, default=1.0, help="radius constant")
    _add_common(e)

    c = sub.add_parser("check", help="run the property suites")
    c.add_argument("--suite", type=str, default="all", help="all, none, or one of: " + ", ".join(sorted(checks.SUITES)))
    c.add_argument("--trials", type=int, default=2000)
    _add_common(c)
    parser.subcommands = sub.choices
    return parser


def cmd_factor(args) -> int:
    started = time.perf_counter()
    seed = args.seed
    try:
        config = PipelineConfig(
            N=args.n,
            d=args.d,
            m=args.m,
            mode=args.mode,
            seed=seed,
            max_attempts=args.max_attempts,
            safety=args.safety,
            radius_override=args.radius,
        )
    except ParameterError as exc:
        raise UsageError(exc) from None
    outcome = run_factoring(config)
    results = {
        "outcome": outcome.status,
        "factor": outcome.factor,
        "attempts_used": outcome.attempts_used,
        "transcript": outcome.transcript,
    }
    report = make_report("factor", seed, vars(config), results, started)
    emit(report, args)
    if outcome.status == FACTORED:
        if not args.json:
            print(outcome.factor)
        return EXIT_OK
    if not args.json:
        print(f"error: {_unfactored_reason(outcome)}", file=sys.stderr)
    if outcome.status == ATTEMPTS_EXHAUSTED:
        return EXIT_EXHAUSTED
    return EXIT_VIOLATION


def _unfactored_reason(outcome) -> str:
    transcript = outcome.transcript
    if outcome.status == REJECTED_PRIME:
        return f"{transcript['config']['N']} is prime"
    if outcome.status == ATTEMPTS_EXHAUSTED:
        return f"no factor after {outcome.attempts_used} attempts"
    if outcome.status == FACTORED:
        return f"{outcome.factor} divides {transcript['config']['N']}; there is nothing to sample"
    witness = transcript["witness"]
    return (
        f"no relation vector outside the sign sublattice within norm {witness['bound']}"
        f" ({witness['lattice_vectors']} lattice vectors checked)"
    )


def _parse_sweep(spec: str) -> list[tuple[int, int, float]]:
    entries = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            d, D, R = chunk.split(":")
            entries.append((int(d), int(D), float(R)))
        except ValueError:
            raise UsageError(f"bad sweep entry {chunk!r}, want d:D:R") from None
    return entries


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    seed = args.seed
    sweep = _parse_sweep(args.sweep)
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    results = {"configs": []}
    for d, D, R in sweep:
        inst = FactoringInstance.build(args.n, d)
        rel = build_relation_lattice(inst)
        params = gauss.GaussParams(R=R, D=D, d=d)
        entry: dict = {"d": d, "D": D, "R": R, "det": rel.det,
                       "tail_regime": params.in_tail_regime}
        state = qsim.build_gaussian_state(params)
        z1_sq = state.z1_squared
        try:
            ref = (R / math.sqrt(2)) ** d
        except OverflowError:
            raise ResourceLimitError(f"(R / sqrt 2)^{d} overflows a float at R = {R:g}") from None
        slack = 2.0 * 2.0 ** -d
        entry["z1_squared"] = z1_sq
        entry["z1_bounds_pass"] = (
            (1 - slack) * ref <= z1_sq <= (1 + slack) * ref
            if params.in_tail_regime
            else None
        )
        gap = qsim.phi1_phi2_gap(rel, params)
        entry["state_gap"] = gap.gap
        entry["z_ratio"] = gap.ratio
        entry["gap_pass"] = (
            gap.gap <= slack and abs(gap.ratio - 1) <= 2.0 ** -d
            if params.in_tail_regime
            else None
        )
        joint = qsim.apply_exponentiation(state, rel)
        P = qsim.qft_measure_distribution(joint)
        Q = gauss.q_table(dual_cosets(rel), params)
        entry["l1_distance"] = float(np.abs(P - Q).sum())
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(d, D)))
        conc = gauss.concentration_check(params, args.trials, rng)
        entry["concentration_failure_rate"] = conc.failure_rate
        entry["concentration_reference"] = conc.reference_rate
        results["configs"].append(entry)
    report = make_report("simulate", seed, {"n": args.n, "sweep": args.sweep, "trials": args.trials}, results, started)
    emit(report, args)
    if not args.json:
        for entry in results["configs"]:
            print(
                f"d={entry['d']} D={entry['D']} R={entry['R']}: "
                f"l1={entry['l1_distance']:.3e} gap={entry['state_gap']:.3e}"
            )
    return EXIT_OK


def cmd_sample(args) -> int:
    started = time.perf_counter()
    seed = args.seed
    prep = prepare(PipelineConfig(N=args.n, d=args.d, m=args.m, seed=seed, safety=args.safety))
    if isinstance(prep, FactoringOutcome):
        print(f"error: {_unfactored_reason(prep)}", file=sys.stderr)
        return EXIT_VIOLATION
    samples = draw_samples(seed, 0, prep.m, prep.params, prep.dual)
    results = {"R": prep.R, "D": prep.params.D, "m": prep.m, "det": prep.rel.det, "samples": samples}
    report = make_report("sample", seed, {"n": args.n, "d": prep.rel.d, "m": prep.m}, results, started)
    emit(report, args)
    if not args.json:
        for s in samples:
            print(s["w_indices"])
    return EXIT_OK


def _parse_list(text: str, cast, flag: str) -> list:
    try:
        return [cast(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ParameterError(f"{flag} wants comma-separated numbers, got {text!r}") from None


def cmd_estimate(args) -> int:
    started = time.perf_counter()
    try:
        if not (math.isfinite(args.c) and args.c > 0):
            raise ParameterError(f"--c wants a positive finite number, got {args.c}")
        if args.log2d is not None and not math.isfinite(args.log2d):
            raise ParameterError(f"--log2d wants a finite number, got {args.log2d}")
        n_values = _parse_list(args.n_values, int, "--n-values")
        if any(n < 2 for n in n_values):
            raise ParameterError(f"--n-values wants bit lengths of at least 2, got {args.n_values!r}")
        eps_values = _parse_list(args.eps_values, float, "--eps-values") if args.eps_values else None
        if eps_values is not None and (args.d is not None or args.log2d is not None):
            raise ParameterError("--eps-values sets d and the grid size itself; drop --d and --log2d")
        rows = []
        for n in n_values:
            if eps_values is not None:
                rows.extend(tradeoff_rows(n, eps_values, C=args.c))
            else:
                d = args.d if args.d is not None else max(1, math.isqrt(n - 1) + 1)
                rows.append(estimate_gate_cost(n, d, log2_D=args.log2d, C=args.c))
        if not all(math.isfinite(row.total) for row in rows):
            raise OverflowError
    except ParameterError as exc:
        raise UsageError(exc) from None
    except OverflowError:
        raise ResourceLimitError(
            "the cost model overflows a float; use smaller --n-values, --log2d or --c"
        ) from None
    prev_total = None
    table = []
    for row in rows:
        ratio = row.total / prev_total if prev_total else None
        prev_total = row.total
        table.append({**asdict(row), "ratio_to_previous": ratio})
    results = {"rows": table}
    report = make_report(
        "estimate",
        args.seed,
        {"n_values": args.n_values, "d": args.d, "log2d": args.log2d, "eps_values": args.eps_values, "c": args.c},
        results,
        started,
    )
    emit(report, args)
    if not args.json:
        for row in table:
            eps = f" eps={row['epsilon']}" if row["epsilon"] is not None else ""
            print(f"n={row['n']} d={row['d']}{eps}: total={row['total']:.4g}")
    return EXIT_OK


def cmd_check(args) -> int:
    started = time.perf_counter()
    seed = args.seed
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    names = {"all": sorted(checks.SUITES), "none": []}.get(args.suite, [args.suite])
    problem = checks.unknown_suite(names)
    if problem:
        raise UsageError(problem)
    results = checks.run_suites(names, trials=args.trials, seed=seed)
    report = make_report("check", seed, {"suite": args.suite, "trials": args.trials}, results, started)
    emit(report, args)
    if not args.json:
        for suite in results["suites"]:
            print(f"{suite['name']}: {'pass' if suite['passed'] else 'FAIL'}")
        if not results["passed"]:
            failed = [suite["name"] for suite in results["suites"] if not suite["passed"]]
            print(f"error: failed suites: {', '.join(failed)}", file=sys.stderr)
    return EXIT_OK if results["passed"] else EXIT_VIOLATION


_HANDLERS = {
    "factor": cmd_factor,
    "simulate": cmd_simulate,
    "sample": cmd_sample,
    "estimate": cmd_estimate,
    "check": cmd_check,
}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            # file values go right after the subcommand, so explicit flags win
            at = argv.index(args.cmd) + 1
            argv[at:at] = _config_flags(args.config, parser.subcommands[args.cmd]._option_string_actions)
            args = parser.parse_args(argv)
        if args.seed < 0:
            raise UsageError(f"the seed must be a nonnegative integer, got {args.seed}")
        return _HANDLERS[args.cmd](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (UsageError, OSError, ParameterError, ResourceLimitError, FactorFound) as exc:
        # a run touches files only in emit, writing --out, so an OSError is usage
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION if isinstance(exc, (ParameterError, ResourceLimitError, FactorFound)) else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
