"""Acceptance gate: every criterion at its stated tolerance, one pass/fail
line printed per criterion (run pytest with -s to see them live)."""

import pytest

from res112 import acceptance


@pytest.mark.parametrize("check", acceptance.ALL_CHECKS,
                         ids=[fn.__name__ for fn in acceptance.ALL_CHECKS])
def test_acceptance_criterion(check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] {result.name} ({result.elapsed:.2f}s): {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


def test_skip_slow_skips_exactly_ac11(monkeypatch):
    # stubs with the real names stand in for the criteria, so the test
    # checks which ones run_all skips without running any of them
    def stub(name):
        def check():
            return acceptance.AcceptanceResult(name, True, "stub", 0.0)
        check.__name__ = name
        return check

    # the criteria keep their numbers: AC5 and AC6 are tests of the
    # unreduced model, not criteria
    assert [fn.__doc__.split(":")[0] for fn in acceptance.ALL_CHECKS] == [
        "AC1", "AC2", "AC3", "AC4", "AC7", "AC8", "AC9", "AC10", "AC11"]
    names = [fn.__name__ for fn in acceptance.ALL_CHECKS]
    monkeypatch.setattr(acceptance, "ALL_CHECKS", [stub(n) for n in names])
    assert [r.name for r in acceptance.run_all(skip_slow=False)] == names
    ran = [r.name for r in acceptance.run_all(skip_slow=True)]
    skipped = [n for n in names if n not in ran]
    assert skipped == ["check_cli_determinism"]
    assert names.index("check_cli_determinism") == 8  # AC11
