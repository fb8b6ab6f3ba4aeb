import math

import pytest

from check_oracles import brute_force_prefix_prob
from psrlab.seeding import rng_for
from psrlab.verify import (
    Report,
    reference_env,
    run_lemma_checks,
    verify,
    wilson_slack,
)
from psrlab.spaces import enumerate_histories


def test_core_identity_suite_passes():
    report = verify("core-identities", 2)
    assert report.all_passed, "\n".join(report.lines())


def test_lemma_suite_passes_quickly():
    report = verify("lemmas", 30)
    assert report.all_passed


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        verify("nope")


def test_wilson_slack_matches_normal_approximation():
    assert wilson_slack(0.05, 200) == pytest.approx(
        2.5758293035489004 * math.sqrt(0.05 * 0.95 / 200), abs=1e-15
    )


def test_brute_force_prefix_prob_agrees_with_forward():
    env = reference_env()
    for h in range(env.space.horizon + 1):
        for hist in enumerate_histories(env.space, h):
            assert brute_force_prefix_prob(env, hist) == pytest.approx(
                env.exact_traj_prob(hist), abs=1e-12
            )


def test_report_lines_format():
    report = Report()
    run_lemma_checks(report, seeds=5)
    lines = report.lines()
    assert lines and all(line.startswith(("PASS", "FAIL")) for line in lines)


def test_azuma_hoeffding_tail_bound():
    """Bounded-martingale deviations exceed the bound at most a delta fraction."""
    delta = 0.05
    n_trials = 400
    k, B = 64, 1.0
    bound = math.sqrt(2 * k * B * B * math.log(2 / delta))
    exceed = 0
    for s in range(n_trials):
        rng = rng_for(s, "azuma")
        # martingale differences: centered +-B coin flips
        steps = B * (2 * rng.integers(0, 2, size=k) - 1)
        if abs(steps.sum()) >= bound:
            exceed += 1
    assert exceed / n_trials <= delta + wilson_slack(delta, n_trials)
