import math
import sys

import numpy as np
import pytest

from check_oracles import (
    brute_force_prefix_prob,
    decoded_trajectories,
    oracle_bound_holds,
    oracle_conditional_tv_diagnostic,
    oracle_prefix_loglik,
    oracle_uniform_collection,
)
from conftest import assert_same_columns
from psrlab.errors import DegenerateHistory, StructuralError
from psrlab.estimation import conditional_tv_diagnostic, make_candidates
from psrlab.offline import OfflineConfig, collect_offline, run_psr_lcb
from psrlab.policies import policy_weight_vector, random_tree_policy, uniform_policy
from psrlab.pomdp import default_psr, random_revealing
from psrlab.psr import PsrStack, hellinger_sq
from psrlab.seeding import child_seed, rng_for
from psrlab.verify import (
    Report,
    _bound_holds,
    _hellinger_sums,
    _prefix_logliks,
    _tree_policy_weights,
    _uniform_collections,
    _uniform_explorers,
    _validity_run_online,
    reference_env,
    run_lemma_checks,
    run_validity_checks,
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
    and ``add`` per entry, bit for bit, under one exploration policy per step;
    the conditional-TV diagnostic of either, over a candidate stack, equals the trajectory-walking
    oracle of each member."""
    env = COLLECTION_ENVS[name]
    truth, _ = default_psr(env)
    collection_seed = child_seed(seed, "mle-event")
    explorers = _uniform_explorers(truth.core_tests)
    (got,) = _uniform_collections(env, explorers, 12, [collection_seed])
    want, policies, buckets = oracle_uniform_collection(env, truth, 12, collection_seed)
    assert_same_columns(got, want)
    assert [p.to_dict() for p in explorers] == [p.to_dict() for p in policies]
    cands = make_candidates(env, "dithered", seed=77, n=4, scale=0.08)
    oracle = [oracle_conditional_tv_diagnostic(model, truth, policies, buckets).hex() for model in cands.models]
    for dataset, dataset_policies in ((got, explorers), (want, policies)):
        values = conditional_tv_diagnostic(cands.stack, truth, dataset, dataset_policies)
        assert [value.hex() for value in values.tolist()] == oracle


def test_conditional_tv_needs_one_policy_per_bucket():
    env = reference_env()
    truth, _ = default_psr(env)
    explorers = _uniform_explorers(truth.core_tests)
    (dataset,) = _uniform_collections(env, explorers, 2, [0])
    for policies in (explorers[:-1], explorers + explorers[:1]):
        with pytest.raises(StructuralError, match="one policy per bucket"):
            conditional_tv_diagnostic(truth.stack, truth, dataset, policies)


VERIFY_MODULE = sys.modules["psrlab.verify"]  # the package re-exports the function under the module's name


@pytest.mark.parametrize("block", [1, 3, 5, VERIFY_MODULE.DRAW_BLOCK])
def test_collection_blocks_equal_one_seed_calls(monkeypatch, block):
    """Collections drawn in blocks have the columns of one-seed calls, bit for bit."""
    env = reference_env()
    explorers = _uniform_explorers(default_psr(env)[0].core_tests)
    seeds = [child_seed(s, "mle-event") for s in range(5)]
    singles = [next(iter(_uniform_collections(env, explorers, 12, [seed]))) for seed in seeds]
    monkeypatch.setattr(VERIFY_MODULE, "DRAW_BLOCK", block)
    blocked = list(_uniform_collections(env, explorers, 12, seeds))
    assert len(blocked) == len(seeds)
    for got, want in zip(blocked, singles):
        assert_same_columns(got, want)


@pytest.mark.parametrize("block", [1, 3, VERIFY_MODULE.DRAW_BLOCK])
def test_validity_verdicts_do_not_depend_on_the_block(monkeypatch, block):
    """Every run's policy weights and bound verdict, and the report, are those of one-run blocks.

    At alpha 0.01 some runs hold and some fail, so each verdict reads its weights.
    """
    params = {"p_min": 1e-10, "beta": 40.0, "lam": 1.0, "alpha": 0.01}

    def recorded(block_size):
        calls = []

        def recording(model, evaluator, true_rewards, reward_leaves, weights):
            verdict = _bound_holds(model, evaluator, true_rewards, reward_leaves, weights)
            calls.append((weights.tobytes(), verdict))
            return verdict

        monkeypatch.setattr(VERIFY_MODULE, "DRAW_BLOCK", block_size)
        monkeypatch.setattr(VERIFY_MODULE, "_bound_holds", recording)
        report = Report()
        run_validity_checks(report, runs=7, params=params)
        return calls, report.lines()

    (want_calls, want_lines), (got_calls, got_lines) = recorded(1), recorded(block)
    assert {verdict for _, verdict in want_calls} == {True, False}
    assert got_calls == want_calls and got_lines == want_lines


def test_tree_policy_weights_are_each_policys_weight_vector():
    space = reference_env().space
    for master, weights in zip([3, 10_003], _tree_policy_weights(space, [3, 10_003], 7)):
        assert weights.shape == (7, space.n_trajectories)
        for j, row in enumerate(weights):
            policy = random_tree_policy(space, child_seed(master, "validity-policy", j))
            assert row.tobytes() == policy_weight_vector(policy, space).tobytes()


def test_mle_events_reads_each_model_once_per_seed(monkeypatch):
    """One selection-record read per seed, over the candidate set's whole stack (the truth is its
    ``"true"`` member), gives every model's stability and log-likelihood."""
    from collections import Counter

    from psrlab import estimation
    from psrlab.verify import run_mle_events

    reads = []  # (dataset, models read) per read; holding the datasets keeps their ids distinct
    read = estimation._SelectionRecord.read

    def counting_read(self, prob_table, dataset):
        reads.append((dataset, len(prob_table(0))))
        return read(self, prob_table, dataset)

    monkeypatch.setattr(estimation._SelectionRecord, "read", counting_read)
    seeds = 3
    run_mle_events(Report(), seeds)
    cands = make_candidates(reference_env(), "dithered", seed=77, n=8, scale=0.08)
    assert len(cands) == 9 and cands.labels[0] == "true"
    assert sorted(Counter(id(dataset) for dataset, _ in reads).values()) == [1] * seeds
    assert [n_models for _, n_models in reads] == [len(cands)] * seeds


def test_mle_events_values_behind_the_lines_match_their_per_pair_forms(monkeypatch):
    """Every ``mle-events`` line prints 0 violations at the seed counts tried, so the lines cannot
    see a drift in the values they compare.  On 3 suite seeds the suite makes one stacked diagnostic
    call per dataset, over its stable members, with one continuation-weight pass per bucket; each
    member's value equals the trajectory-walking oracle of that candidate bit for bit, and each
    candidate's Hellinger sum, taken once per suite, equals its per-dataset ``math.fsum``."""
    from psrlab import estimation
    from psrlab.verify import run_mle_events

    calls, stables, weight_buckets = [], [], []
    diagnostic, read, weights = conditional_tv_diagnostic, estimation._SelectionRecord.read, estimation.continuation_weights

    def recording_diagnostic(models, reference, dataset, policies):
        values = diagnostic(models, reference, dataset, policies)
        calls.append((models, reference, dataset, policies, values))
        return values

    def recording_read(self, prob_table, dataset):
        stable, liks = read(self, prob_table, dataset)
        stables.append(stable)
        return stable, liks

    def counting_weights(policy, space, h, prefixes):
        weight_buckets.append(h)
        return weights(policy, space, h, prefixes)

    monkeypatch.setattr(VERIFY_MODULE, "conditional_tv_diagnostic", recording_diagnostic)
    monkeypatch.setattr(estimation._SelectionRecord, "read", recording_read)
    monkeypatch.setattr(estimation, "continuation_weights", counting_weights)
    seeds = 3
    run_mle_events(Report(), seeds)
    assert len(calls) == len(stables) == seeds and weight_buckets == [0, 1] * seeds
    cands = make_candidates(reference_env(), "dithered", seed=77, n=8, scale=0.08)
    truth = cands.models[cands.labels.index("true")]
    explorers = _uniform_explorers(truth.core_tests)
    hellinger = _hellinger_sums(cands.models, truth, explorers, 12)
    for (models, reference, dataset, policies, values), stable in zip(calls, stables):
        ids = np.flatnonzero(stable)
        assert reference.index == truth.index and len(models) == len(values) == len(ids) > 0
        buckets = decoded_trajectories(dataset)
        want = [oracle_conditional_tv_diagnostic(cands.models[i], truth, policies, buckets) for i in ids]
        assert [value.hex() for value in values.tolist()] == [value.hex() for value in want]
        per_dataset = [math.fsum([hellinger_sq(model, truth, explorers[h]) for h, bucket in enumerate(buckets) for _ in bucket])
                       for model in cands.models]
        assert [value.hex() for value in hellinger.tolist()] == [value.hex() for value in per_dataset]


def test_mle_events_builds_no_table_depth_for_a_taken_stack(monkeypatch):
    """Each dataset's stable members are taken from the candidate stack with every depth it has
    cached, so the diagnostic reads their tables without building one."""
    from psrlab.verify import run_mle_events

    taken, reads = [], []
    take, tables = PsrStack.take, PsrStack.tables

    def recording_take(self, ids):
        out = take(self, ids)
        taken.append(out)
        return out

    def recording_tables(self, h):
        if any(self is stack for stack in taken):
            reads.append(h in self._depth_tables)
        return tables(self, h)

    monkeypatch.setattr(PsrStack, "take", recording_take)
    monkeypatch.setattr(PsrStack, "tables", recording_tables)
    run_mle_events(Report(), 3)
    assert len(reads) >= 3 and all(reads)


def test_stacked_diagnostic_refuses_a_degenerate_member_and_reads_an_empty_stack():
    """A member (or reference) under which a recorded prefix has probability 0 makes the stacked call
    raise; the stack without it keeps the other members' bits, and an empty stack gives an empty array."""
    env = reference_env()
    cands = make_candidates(env, "dithered", seed=77, n=4, scale=0.08)
    stack, truth = cands.stack, cands.models[0]
    explorers = _uniform_explorers(truth.core_tests)
    (dataset,) = _uniform_collections(env, explorers, 12, [child_seed(0, "mle-event")])
    assert any(lex < env.space.n_actions for lex in dataset.columns[1].prefix)  # a recorded first observation 0
    first = np.array(stack.M[0])
    first[2, 0] = 0.0  # member 2 never emits observation 0 first
    degenerate = PsrStack(stack.space, stack.core_tests, stack.psi0, (first,) + stack.M[1:], stack.phi)
    for models, reference in ((degenerate, truth), (stack.take([]), degenerate.members()[2])):
        with pytest.raises(DegenerateHistory, match="^prefix at step 1 has zero probability under a compared model$"):
            conditional_tv_diagnostic(models, reference, dataset, explorers)
    kept = [0, 1, 3, 4]
    want = conditional_tv_diagnostic(stack, truth, dataset, explorers)[kept]
    got = conditional_tv_diagnostic(degenerate.take(kept), truth, dataset, explorers)
    assert got.tobytes() == want.tobytes() and (got[1:] > 0.0).all()
    empty = conditional_tv_diagnostic(stack.take([]), truth, dataset, explorers)
    assert empty.shape == (0,) and empty.dtype == np.float64


def test_prefix_logliks_are_each_members_per_entry_sum():
    """The stacked prefix log-likelihoods equal each member's per-entry ``math.log`` sum to 1e-12
    relative (``np.log`` and a pairwise sum replace ``math.log`` and ``fsum``), and are -inf for a
    member under which a recorded prefix has probability 0 or below."""
    env = reference_env()
    stack = make_candidates(env, "dithered", seed=77, n=4, scale=0.08).stack
    first = np.array(stack.M[0])
    first[1, 0] = 0.0  # member 1 never emits observation 0 first
    first[2, 0] *= -1.0  # member 2 gives a first observation 0 negative probability
    stack = PsrStack(stack.space, stack.core_tests, stack.psi0, (first,) + stack.M[1:], stack.phi)
    recorded = []
    for seed in range(4):
        (dataset,) = _uniform_collections(env, _uniform_explorers(stack.core_tests), 12, [child_seed(seed, "mle-event")])
        zero_first = any(lex < env.space.n_actions for lex in dataset.columns[1].prefix)
        recorded.append(zero_first)
        got = _prefix_logliks(stack, dataset)
        want = np.array([oracle_prefix_loglik(model, dataset) for model in stack.members()])
        assert np.isneginf(got).tolist() == np.isneginf(want).tolist() == [False, zero_first, zero_first, False, False]
        finite = np.isfinite(want)
        assert got[finite] == pytest.approx(want[finite], rel=1e-12, abs=0.0)
    assert recorded == [True, False, True, True]  # seed 1 records no first observation 0


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
        (weights,) = _tree_policy_weights(env.space, [seed], 50)
        verdict = _bound_holds(model, evaluator, true_table * leaves, leaves, weights)
        assert verdict == oracle_bound_holds(model, evaluator, true_table, leaves, seed, 50)
        verdicts.append(verdict)
    assert set(verdicts) == {2.0: {True}, 0.01: {True, False}, 1e-6: {False}}[alpha]
