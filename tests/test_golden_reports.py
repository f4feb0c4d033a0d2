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
     "1ba989a973b83a75f1ff2c7b48b7151aa2e9c2fb5137593d1b2b04571c14301e"),
    (["check", "--suite", "all", "--trials", "300", "--seed", "1"],
     "7160afba6c4efba27cf3ad0bdbddb0807640e4c2581fe88f9656070ad079ba55"),
    (["factor", "--n", "10403", "--d", "4", "--seed", "1"],
     "7abcdf02e25efe2fa4e885aa0159dcd2ff20595aa4ce0db4e8bc3cd3e038781f"),
    (["factor", "--n", "1147", "--d", "4", "--radius", "256", "--seed", "1"],
     "980940b531f563fac8e534c81e60f0b95d690be08887ea66a3a762723ff8d1e5"),
    (["sample", "--n", "437", "--d", "3", "--seed", "1"],
     "d6f468f7529407d05bebd7a01289ec3c708cec4acd4963b6f7a1d29024e0886a"),
    (["factor", "--n", "77", "--d", "1", "--mode", "statevector", "--seed", "1"],
     "242afc6621aade8b555ca21fc86f190ff9338c3ab80b88bcb0ca62b755372fac"),
    (["factor", "--n", "91", "--d", "1", "--mode", "statevector", "--seed", "1"],
     "570f2654144320a38787337d2a3698afe41e587ac8e1488debef4816ddcb65f1"),
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
