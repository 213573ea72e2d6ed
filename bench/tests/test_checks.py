import dataclasses

import pytest

from bench import checks
from bench.checks import CheckFailed
from bench.workloads import PassResult, Reference

GOOD = PassResult(
    jobs=4, submitted=4, attempted=5, failed=0, events=100, cct_digest="c0",
    violations=0, op_s=[1e-4] * 5, counts={"serve.cache.lookups": 12},
    identity={"trace_digest": "t", "event_digest": "e", "cct_digest": "c0"},
)
REFERENCE = Reference(wall_s=1.0, identity=dict(GOOD.identity))


def bad(**changes) -> PassResult:
    return dataclasses.replace(GOOD, **changes)


def assert_fails(check: str, fn, *args) -> None:
    with pytest.raises(CheckFailed) as info:
        fn("wl", *args)
    assert info.value.workload == "wl"
    assert info.value.check == check
    assert "wl" in str(info.value) and check in str(info.value)


def test_clean_passes_fail_no_check():
    assert checks.run_all("wl", [GOOD, GOOD], REFERENCE) == []


def test_unfinished_job_fails_jobs_complete():
    assert_fails("jobs_complete", checks.jobs_complete, [GOOD, bad(jobs=3, failed=1)])


def test_violation_fails_no_invariant_violations():
    assert_fails("no_invariant_violations", checks.no_invariant_violations,
                 [bad(violations=2)])


def test_refused_request_fails_requests_ok():
    assert_fails("requests_ok", checks.requests_ok,
                 [bad(failed=1, first_error="join: unknown group 9")])


@pytest.mark.parametrize("change", [
    {"events": 101},
    {"cct_digest": "c1"},
    {"counts": {"serve.cache.lookups": 13}},
])
def test_drift_between_passes_fails_passes_repeat(change):
    assert_fails("passes_repeat", checks.passes_repeat, [GOOD, bad(**change)])


@pytest.mark.parametrize("key", ["trace_digest", "event_digest", "cct_digest"])
def test_sharded_mismatch_fails_shard_matches_serial(key):
    sharded = bad(identity={**GOOD.identity, key: "other"})
    assert_fails("shard_matches_serial", checks.shard_matches_serial,
                 [sharded], REFERENCE)


def test_run_all_reports_every_failed_check():
    broken = bad(jobs=3, violations=1, events=99, first_error="submit: refused",
                 identity={**GOOD.identity, "trace_digest": "x"})
    failed = checks.run_all("wl", [GOOD, broken], REFERENCE)
    assert [f.check for f in failed] == [
        "jobs_complete", "no_invariant_violations", "requests_ok",
        "passes_repeat", "shard_matches_serial",
    ]
