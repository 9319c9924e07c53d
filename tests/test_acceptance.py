"""Acceptance gate: every criterion of the cross-validation suite must pass
at its stated tolerance.  One test per criterion; each prints a pass/fail
line with the measured error so the gate doubles as a report
(`pytest tests/test_acceptance.py -v -s`)."""

import pytest

from heatkern import checks
from heatkern import oracle

DESCRIPTIONS = {
    1: "closed-form kernel reproduction, rel err <= 1e-8, runtime < 10 s",
    2: "superposition vs direct integration <= 1e-6 componentwise",
    3: "inversion roundtrip recovers the fundamental to 1e-9",
    4: "small-time asymptotics (limits to 1e-4, kernel ratio to 1e-2)",
    5: "probabilistic checks (normalizations, OU mean, FP long-time limit)",
    6: "Chapman-Kolmogorov composition, rel err <= 1e-6",
    7: "Cauchy solver vs Richardson-combined FD oracle at t = 0.25 <= 1e-3; "
       "FD Richardson ratio in [3, 5]; three shared FD runs per profile",
    8: "Burgers: Bateman <= 1e-4, Richardson-combined FD oracle <= 1e-3, "
       "identity <= 1e-4",
    9: "traveling waves: residual <= 1e-6*scale, separable profile to 1e-10",
    10: "dual formulas: gamma0 <= 1e-6, sigma <= 1e-12",
}


def _report(criterion, results):
    ok = all(r.passed for r in results)
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {criterion}: "
          f"{DESCRIPTIONS[criterion]}")
    for r in results:
        mark = "ok " if r.passed else "BAD"
        print(f"    {mark} {r.name}: measured {r.measured:.3e} "
              f"vs tolerance {r.tolerance:.1e} ({r.seconds:.2f}s)")
    return ok


@pytest.mark.parametrize("criterion", sorted(checks.CRITERIA))
def test_acceptance_criterion(criterion):
    names = checks.CRITERIA[criterion]
    results = [fn() for name, fn in checks.ALL_CHECKS if name in names]
    assert results, f"no checks registered for criterion {criterion}"
    ok = _report(criterion, results)
    failures = [f"{r.name}: {r.measured:.3e} > {r.tolerance:.1e}"
                for r in results if not r.passed]
    assert ok, "; ".join(failures)
    if criterion == 1:
        runtime = sum(r.seconds for r in results)
        print(f"    criterion 1 runtime: {runtime:.2f}s (< 10 s required)")
        assert runtime < 10.0


def test_suite_is_complete():
    covered = {prefix for plist in checks.CRITERIA.values() for prefix in plist}
    names = [name for name, _ in checks.ALL_CHECKS]
    for prefix in covered:
        assert any(n.startswith(prefix) for n in names), prefix
    # the validate table must stay a real suite, not a stub
    assert len(names) >= 12


def test_fd_checks_share_three_runs_per_profile(monkeypatch):
    calls = []
    real = oracle.fd_diffusion

    def counted(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "fd_diffusion", counted)
    checks._fd_errors.cache_clear()
    fns = dict(checks.ALL_CHECKS)
    try:
        for name in ("cauchy-vs-fd/heat", "fd-richardson/heat"):
            assert fns[name]().passed
    finally:
        checks._fd_errors.cache_clear()
    assert sorted(spec.n for spec in calls) == [201, 401, 801]


@pytest.mark.parametrize("profile", sorted(checks.PROFILE_SPECS))
def test_cauchy_vs_fd_measures_the_kernel_not_the_oracle(profile):
    # the Richardson combination cancels the oracle's O(h^2) error (about
    # 1e-5 for a single n = 801 run), so the check sees the kernel's error
    result = dict(checks.ALL_CHECKS)[f"cauchy-vs-fd/{profile}"]()
    assert result.measured <= 1e-7
