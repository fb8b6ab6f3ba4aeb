import math

import pytest

from check_oracles import (
    brute_force_prefix_prob,
    oracle_bound_holds,
    oracle_conditional_tv_diagnostic,
    oracle_uniform_collection,
)
from psrlab.errors import StructuralError
from psrlab.estimation import conditional_tv_diagnostic, make_candidates
from psrlab.offline import OfflineConfig, collect_offline, run_psr_lcb
from psrlab.policies import uniform_policy
from psrlab.pomdp import default_psr, random_revealing
from psrlab.seeding import child_seed, rng_for
from psrlab.verify import (
    Report,
    _bound_holds,
    _uniform_collection,
    _uniform_explorers,
    _validity_run_online,
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
    with pytest.raises(StructuralError, match="unknown suite 'nope'; options: core-identities, lemmas, mle-events"):
        verify("nope")


@pytest.mark.parametrize("seeds", [True, 2.0, "2", None])
def test_non_integer_seed_count_raises(seeds):
    with pytest.raises(StructuralError, match="seeds must be an integer"):
        verify("lemmas", seeds)


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


COLLECTION_ENVS = {
    "reference": reference_env(),
    "random_revealing(2,2,2,2,3)": random_revealing(2, 2, 2, 2, 3, alpha_threshold=0.05),
}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("name", sorted(COLLECTION_ENVS))
def test_uniform_collection_matches_one_episode_oracle(name, seed):
    """One batched draw per step gives the columns of one ``sample_episode``
    and ``add`` per entry, bit for bit, with one policy id per step; the
    conditional-TV diagnostic of either equals the entry-walking oracle."""
    env = COLLECTION_ENVS[name]
    truth, _ = default_psr(env)
    collection_seed = child_seed(seed, "mle-event")
    got = _uniform_collection(env, _uniform_explorers(truth.core_tests), 12, collection_seed)
    want, buckets = oracle_uniform_collection(env, truth, 12, collection_seed)
    for h, (got_cols, want_cols) in enumerate(zip(got.columns, want.columns, strict=True), start=1):
        for g, w in zip(got_cols[:-1], want_cols[:-1], strict=True):
            assert g.typecode == w.typecode and g.tobytes() == w.tobytes()
        assert got_cols.policy_id == [f"uexplore[h={h}]"] * 12
        assert want_cols.policy_id == [f"uexplore[k={k},h={h}]" for k in range(1, 13)]
        assert got.policies[f"uexplore[h={h}]"].to_dict() == want.policies[want_cols.policy_id[0]].to_dict()
    for model in make_candidates(env, "dithered", seed=77, n=4, scale=0.08).models:
        oracle = oracle_conditional_tv_diagnostic(model, truth, want.policies, buckets).hex()
        assert conditional_tv_diagnostic(model, truth, got).hex() == oracle
        assert conditional_tv_diagnostic(model, truth, want).hex() == oracle


def test_mle_events_reads_each_model_once_per_seed(monkeypatch):
    """One selection-record pass per model per seed gives both its stability and its log-likelihood."""
    from collections import Counter

    from psrlab import estimation
    from psrlab.verify import run_mle_events

    datasets = []  # one item per read; holding the datasets keeps their ids distinct
    read = estimation._SelectionRecord.read

    def counting_read(self, prob_table, dataset):
        datasets.append(dataset)
        return read(self, prob_table, dataset)

    monkeypatch.setattr(estimation._SelectionRecord, "read", counting_read)
    seeds = 3
    run_mle_events(Report(), seeds)
    n_models = 1 + len(make_candidates(reference_env(), "dithered", seed=77, n=8, scale=0.08))  # truth + candidates
    assert n_models == 10
    assert sorted(Counter(map(id, datasets)).values()) == [n_models] * seeds


@pytest.mark.parametrize("alpha", [2.0, 0.01, 1e-6])
def test_stacked_bound_check_gives_the_per_policy_verdicts(alpha):
    """The stacked check's verdict equals the one-policy-object loop's on seeded online and offline runs.

    At the suite's alpha every run holds; at 0.01 some runs fail and some
    hold; at 1e-6 every run fails, so the early return is taken.
    """
    env = reference_env()
    truth, _ = default_psr(env)
    cands = make_candidates(env, "dithered", seed=42, n=10, scale=0.03)
    params = {"p_min": 1e-10, "beta": 40.0, "lam": 1.0, "alpha": alpha}
    leaves = env.reward.leaf_table(env.space)
    true_table = truth.prob_table(env.space.horizon)
    runs = []
    for s in range(6):
        runs.append((*_validity_run_online(child_seed(s, "validity-online"), env, truth, cands, params), s))
        data = collect_offline(env, uniform_policy(env.space), 60, child_seed(s, "validity-offline"))
        offline = run_psr_lcb(data, cands, OfflineConfig(params["p_min"], params["beta"], params["lam"], alpha), leaves)
        runs.append((offline.model, offline.evaluator, 10_000 + s))
    verdicts = []
    for model, evaluator, seed in runs:
        verdict = _bound_holds(model, evaluator, true_table * leaves, leaves, seed, 50)
        assert verdict == oracle_bound_holds(model, evaluator, true_table, leaves, seed, 50)
        verdicts.append(verdict)
    assert set(verdicts) == {2.0: {True}, 0.01: {True, False}, 1e-6: {False}}[alpha]
