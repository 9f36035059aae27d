"""The byte contract across commits: results against the SHA-256 digests in tests/golden_digests.json.

The digests are keyed by what a result's bits depend on besides the code
(`make_golden_digests.environment`); where no entry matches, the tests skip
and name the key they looked for.  To record an environment, or to
regenerate after a change that moves bytes on purpose, run
`PYTHONPATH=src python tests/make_golden_digests.py`.  The slow tier (the
bench pretrains, about 14 s) runs here only, not in the kernel tripwires of
tests/test_stacking.py.
"""

import json

import pytest

import make_golden_digests as golden


def recorded_digests() -> dict:
    env = golden.environment()
    digests = golden.entry_for(env)
    if digests is None:
        pytest.skip(f"no golden digests recorded for {json.dumps(env)}")
    return digests


def test_evaluate_reports_keep_their_digests():
    want = recorded_digests()
    got = golden.evaluate_digests()
    assert got == {name: want[name] for name in got}


def test_trainings_keep_their_digests():
    want = recorded_digests()
    got = golden.training_digests()
    assert got == {name: want[name] for name in got}


def test_ablate_csv_keeps_its_digest():
    want = recorded_digests()
    got = golden.ablate_digests()
    assert got == {name: want[name] for name in got}


def test_oracle_check_stdout_keeps_its_digest():
    want = recorded_digests()
    assert golden.oracle_check_digest() == {"oracle-check": want["oracle-check"]}


@pytest.mark.slow
def test_bench_pretrains_keep_their_digests():
    want = recorded_digests()
    got = golden.bench_pretrain_digests()
    assert got == {name: want[name] for name in got}
