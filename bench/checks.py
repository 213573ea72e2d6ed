"""Output checks every benchmark run makes.

Each check raises :class:`CheckFailed`, naming the workload and the check,
when the program's outputs are wrong.  A run with a failed check reports
``"correct": false`` and exits non-zero.
"""

from __future__ import annotations


class CheckFailed(Exception):
    """A benchmark output check failed."""

    def __init__(self, workload: str, check: str, detail: str) -> None:
        super().__init__(f"{workload}: check {check!r} failed: {detail}")
        self.workload = workload
        self.check = check
        self.detail = detail


def jobs_complete(workload: str, passes) -> None:
    """Every job of every pass completed."""
    for i, p in enumerate(passes):
        if p.jobs != p.submitted:
            raise CheckFailed(
                workload, "jobs_complete",
                f"pass {i}: {p.jobs} of {p.submitted} jobs completed",
            )


def no_invariant_violations(workload: str, passes) -> None:
    for i, p in enumerate(passes):
        if p.violations:
            raise CheckFailed(
                workload, "no_invariant_violations",
                f"pass {i}: {p.violations} violations",
            )


def requests_ok(workload: str, passes) -> None:
    """Every request was answered ``ok`` (the failures that are not jobs)."""
    for i, p in enumerate(passes):
        if p.first_error is not None:
            raise CheckFailed(
                workload, "requests_ok", f"pass {i}: {p.first_error}"
            )


def passes_repeat(workload: str, passes) -> None:
    """Event counts, CCT digests and layer counts are identical across
    passes: the simulator is deterministic, so drift is a bug."""
    first = passes[0]
    for i, p in enumerate(passes[1:], start=1):
        for what, a, b in (
            ("events", first.events, p.events),
            ("cct digest", first.cct_digest, p.cct_digest),
            ("counts", first.counts, p.counts),
        ):
            if a != b:
                raise CheckFailed(
                    workload, "passes_repeat", f"pass {i} {what}: {b} != {a}"
                )


def shard_matches_serial(workload: str, passes, reference) -> None:
    """Each sharded pass is byte-identical to the serial run of its spec:
    golden-trace digest, fired-event digest and CCTs."""
    for i, p in enumerate(passes):
        for key, want in reference.identity.items():
            got = p.identity.get(key)
            if got != want:
                raise CheckFailed(
                    workload, "shard_matches_serial",
                    f"pass {i} {key}: {got} != serial {want}",
                )


def run_all(workload: str, passes, reference=None) -> list[CheckFailed]:
    """Every check that applies; returns the failures."""
    checks = [
        lambda: jobs_complete(workload, passes),
        lambda: no_invariant_violations(workload, passes),
        lambda: requests_ok(workload, passes),
        lambda: passes_repeat(workload, passes),
    ]
    if reference is not None:
        checks.append(lambda: shard_matches_serial(workload, passes, reference))
    failures = []
    for check in checks:
        try:
            check()
        except CheckFailed as exc:
            failures.append(exc)
    return failures
