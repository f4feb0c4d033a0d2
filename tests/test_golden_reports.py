"""Seeded reports stay byte-identical outside their timings.

Each command below runs in-process with a fixed seed; the sha256 of its
JSON report, with the `timings` block dropped and keys sorted, is pinned,
and the written file is the text json.dumps(..., sort_keys=True, indent=2)
gives for it.
Together they cover the simulate sweep (statevector, mixture tables and the
concentration check), every check suite, oracle factoring with
certification at the default and at a pinned radius, statevector factoring
on the two largest grids of the benchmark, and sampling.  A
change that moves one of these digests changes a transcript and must say
why.
"""

import contextlib
import hashlib
import io
import json

import pytest

from qfactor.cli import main

GOLDEN = [
    (["simulate", "--n", "77", "--sweep", "1:16:4;2:32:8;3:32:4.62", "--trials", "300", "--seed", "1"],
     "bc56c98f18dad50c7577972c3ae12e60bea71164c51cbb3b79fdc1d567d90e96"),
    (["check", "--suite", "all", "--trials", "300", "--seed", "1"],
     "7160afba6c4efba27cf3ad0bdbddb0807640e4c2581fe88f9656070ad079ba55"),
    (["factor", "--n", "10403", "--d", "4", "--seed", "1"],
     "7be4db29898f64dcf10bc009fdfa209e03ebb5386dbc6d3936c516d3cda0c101"),
    (["factor", "--n", "1147", "--d", "4", "--radius", "256", "--seed", "1"],
     "0068abaec3dc5270652b21922148057ad1690645f3ad7d44325dd05b992aa7b8"),
    (["sample", "--n", "437", "--d", "3", "--seed", "1"],
     "d6f468f7529407d05bebd7a01289ec3c708cec4acd4963b6f7a1d29024e0886a"),
    (["factor", "--n", "77", "--d", "1", "--mode", "statevector", "--seed", "1"],
     "e13eb9b98f99740d8a4a606efd8acaef03c058f80c3f97c1a9c78bd40aed92ac"),
    (["factor", "--n", "91", "--d", "1", "--mode", "statevector", "--seed", "1"],
     "223448c1bb974cb8160564ec6b72403eb154cb7ce363901908da9fbaa83bbeca"),
]


@pytest.mark.parametrize("argv, digest", GOLDEN, ids=["simulate-77", "check-all", "factor-10403-d4",
                                                      "factor-1147-d4-r256", "sample-437-d3",
                                                      "factor-77-d1-statevector", "factor-91-d1-statevector"])
def test_report_digest_is_pinned(argv, digest, tmp_path):
    out = tmp_path / "report.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(out)]) == 0
    text = out.read_text()
    report = json.loads(text)
    assert text == json.dumps(report, sort_keys=True, indent=2) + "\n"
    body = {k: v for k, v in report.items() if k != "timings"}
    assert hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest() == digest
