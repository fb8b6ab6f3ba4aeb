import numpy as np
import pytest

from check_oracles import oracle_online_dataset
from conftest import assert_same_columns, make_single_state_env
from policy_oracles import action_row, exploration_policy
from psrlab.errors import EmptyFeasibleSet, StructuralError
from psrlab.estimation import make_candidates
from psrlab import online
from psrlab.online import (
    OnlineConfig,
    evaluate_output,
    run_psr_ucb,
)
from psrlab.policies import (
    DeterministicTreePolicy,
    UniformActionSeqPolicy,
    policy_weight_vector,
    uniform_policy,
)
from psrlab.pomdp import RewardTable, TabularPomdp, default_psr, random_revealing
from psrlab.spaces import History, ObsActSpace


def base_config(**overrides):
    values = dict(
        max_iterations=40,
        epsilon=0.2,
        delta=0.1,
        p_min=1e-9,
        beta=5.0,
        lam=1.0,
        alpha=0.5,
        seed=0,
    )
    values.update(overrides)
    return OnlineConfig(**values)


def test_exploration_policy_step_one_is_pure_suffix(reference_model):
    pol = exploration_policy(uniform_policy(reference_model.space), 1, reference_model.core_tests)
    assert isinstance(pol, UniformActionSeqPolicy)
    assert pol.sequences == reference_model.core_tests.exploration_seqs[0]


def test_exploration_policy_singleton_suffix():
    space = ObsActSpace(2, 1, 2)
    env = make_single_state_env(horizon=2, n_obs=2, n_actions=1)
    model, _ = default_psr(env)
    pol = exploration_policy(uniform_policy(space), 2, model.core_tests)
    # single action: every exploration suffix is deterministic
    probs = action_row(pol, space, History(((0, 0),)), 1)
    assert probs.tolist() == [1.0]


def test_exploration_policy_weight_product(reference_model):
    core = reference_model.core_tests
    space = reference_model.space
    prefix = uniform_policy(space)
    pol = exploration_policy(prefix, 2, core)
    seqs = core.exploration_seqs[1]
    traj = History(((0, 1), (1, seqs[1][0] if seqs[1] else 0)))
    w = policy_weight_vector(pol, space)[traj.lex_index(space)]
    # prefix weight at step 1 times the mixture weight of the second action
    consistent = [s for s in seqs if len(s) == 0 or s[0] == traj.steps[1][1]]
    pad = sum((1 / space.n_actions) ** (1 if len(s) == 0 else 0) for s in consistent)
    assert w == pytest.approx(0.5 * pad / len(seqs), abs=1e-12)


@pytest.mark.parametrize(
    "field,value",
    [("max_iterations", 2.5), ("max_iterations", True), ("seed", "0"), ("epsilon", None), ("p_min", "x"),
     ("beta", True), ("lam", [1.0]), ("alpha", float("nan"))],
)
def test_config_fields_need_numbers_of_their_kind(field, value):
    from psrlab.offline import OfflineConfig

    with pytest.raises(StructuralError, match=field):
        base_config(**{field: value})
    if field in ("p_min", "beta", "lam", "alpha"):
        offline = dict(p_min=1e-9, beta=5.0, lam=1.0, alpha=0.5)
        with pytest.raises(StructuralError, match=field):
            OfflineConfig(**offline | {field: value})
        assert getattr(OfflineConfig(**offline | {field: 5}), field) == 5  # an int is a real number
    assert base_config(beta=5, lam=np.float64(1.0), seed=np.int64(3)).beta == 5


def test_exploration_policy_step_bounds(reference_model):
    with pytest.raises(StructuralError):
        exploration_policy(uniform_policy(reference_model.space), 0, reference_model.core_tests)


def test_run_degenerate_spaces_terminates_immediately():
    env = make_single_state_env(horizon=2, n_obs=1, n_actions=1, emission_row=np.array([1.0]))
    model, _ = default_psr(env)
    cands = make_candidates(env, "include_true")
    cfg = base_config(epsilon=0.9, alpha=0.3, lam=1.0)
    result = run_psr_ucb(env, cfg, cands, model.core_tests)
    assert result.terminated and len(result.logs) == 1
    expected = min(0.3 * np.sqrt(sum(1.0 / (1.0 + 1.0) for _ in range(2))), 1.0)
    assert result.logs[0].ucb_value == pytest.approx(expected, abs=1e-12)
    assert result.final_policy is not None


def test_run_include_true_returns_truth(reference_env, reference_model):
    cands = make_candidates(reference_env, "include_true")
    cfg = base_config(max_iterations=120)
    result = run_psr_ucb(reference_env, cfg, cands, reference_model.core_tests)
    assert result.terminated
    assert result.logs[-1].candidate_id == 0
    gap, max_tv = evaluate_output(reference_env, reference_model, result.last_model, result.final_policy)
    assert abs(gap) <= 1e-12
    assert max_tv <= 1e-9


def test_dataset_growth_one_entry_per_step(reference_env, reference_model):
    cands = make_candidates(reference_env, "include_true")
    cfg = base_config(max_iterations=7, epsilon=1e-9)
    result = run_psr_ucb(reference_env, cfg, cands, reference_model.core_tests)
    assert len(result.logs) == 7
    assert all(log.bucket_sizes == (log.k,) * reference_env.space.horizon for log in result.logs)


def test_loop_body_is_reward_free(reference_env, reference_model):
    reads = {"n": 0}

    class CountingReward(RewardTable):
        def of(self, trajectory):
            reads["n"] += 1
            return super().of(trajectory)

        def leaf_table(self, space):
            reads["n"] += 1
            return super().leaf_table(space)

    env = TabularPomdp(
        reference_env.n_states,
        reference_env.space,
        reference_env.transition,
        reference_env.emission,
        reference_env.initial_state,
        CountingReward(reference_env.reward.table),
    )
    cands = make_candidates(reference_env, "include_true")
    cfg = base_config(max_iterations=5, epsilon=1e-9)  # never terminates
    result = run_psr_ucb(env, cfg, cands, reference_model.core_tests)
    assert not result.terminated
    assert result.final_policy is None
    assert reads["n"] == 0
    cfg2 = base_config(max_iterations=120)
    result2 = run_psr_ucb(env, cfg2, cands, reference_model.core_tests)
    assert result2.terminated and reads["n"] > 0


def test_run_determinism(reference_env, reference_model):
    cands = make_candidates(reference_env, "dithered", seed=5, n=6, scale=0.05)
    cfg = base_config(max_iterations=15, epsilon=1e-9, seed=3)
    a = run_psr_ucb(reference_env, cfg, cands, reference_model.core_tests)
    b = run_psr_ucb(reference_env, cfg, cands, reference_model.core_tests)
    logs_a = [(l.k, l.candidate_id, l.feasible_size, l.ucb_value, l.bucket_sizes) for l in a.logs]
    logs_b = [(l.k, l.candidate_id, l.feasible_size, l.ucb_value, l.bucket_sizes) for l in b.logs]
    assert logs_a == logs_b


def test_empty_feasible_set_carries_iteration_context(reference_env, reference_model):
    cands = make_candidates(reference_env, "include_true")
    cfg = base_config(p_min=0.9)
    with pytest.raises(EmptyFeasibleSet, match="iteration 1"):
        run_psr_ucb(reference_env, cfg, cands, reference_model.core_tests)


def test_evaluate_output_bandit_gap():
    space = ObsActSpace(1, 2, 1)
    emission = np.ones((1, 1, 1))
    reward = RewardTable(np.array([[[0.3, 0.7]]]))
    env = TabularPomdp(1, space, np.ones((0, 2, 1, 1)), emission, 0, reward)
    model, _ = default_psr(env)
    worst = DeterministicTreePolicy(space, (np.zeros(1, dtype=np.int64),))
    gap, max_tv = evaluate_output(env, model, model, worst)
    assert gap == pytest.approx(0.4, abs=1e-12)
    assert max_tv == 0.0


def test_evaluate_output_matches_brute_force_recomputation():
    from test_planner import all_tree_policies

    from psrlab.estimation import make_candidates
    from psrlab.planner import leaf_table, policy_value_on_table
    from psrlab.pomdp import default_psr, random_revealing

    env = random_revealing(seed=11, n_states=2, n_obs=2, n_actions=2, horizon=2, alpha_threshold=0.05)
    true_model, _ = default_psr(env)
    cands = make_candidates(env, "dithered", seed=5, n=10, scale=0.05)
    cfg = base_config(max_iterations=200, seed=2)
    result = run_psr_ucb(env, cfg, cands, true_model.core_tests)
    assert result.terminated
    gap, max_tv = evaluate_output(env, true_model, result.last_model, result.final_policy)
    space = env.space
    reward = true_model.prob_table(2) * leaf_table(space, env.reward_of)
    best = max(policy_value_on_table(space, p, reward) for p in all_tree_policies(space))
    brute_gap = best - policy_value_on_table(space, result.final_policy, reward)
    diff = np.abs(result.last_model.prob_table(2) - true_model.prob_table(2))
    brute_tv = max(policy_value_on_table(space, p, diff) for p in all_tree_policies(space))
    assert gap == pytest.approx(brute_gap, abs=1e-12)
    assert max_tv == pytest.approx(brute_tv, abs=1e-12)


def test_ucb_value_sequence_logged_within_unit_interval(reference_env, reference_model):
    cands = make_candidates(reference_env, "include_true")
    cfg = base_config(max_iterations=10, epsilon=1e-9)
    result = run_psr_ucb(reference_env, cfg, cands, reference_model.core_tests)
    for log in result.logs:
        assert 0.0 <= log.ucb_value <= 1.0


def test_returned_dataset_holds_no_selection_record(reference_env, reference_model):
    """The loop drops its selection record on return, and a later selection on the returned
    dataset carries the bits of a fresh pass over the same entries."""
    from psrlab.estimation import DatasetFamily, constrained_mle

    cands = make_candidates(reference_env, "dithered", seed=5, n=6, scale=0.05)
    cfg = base_config(max_iterations=12, epsilon=1e-9)
    result = run_psr_ucb(reference_env, cfg, cands, reference_model.core_tests)
    assert result.dataset._selection is None
    space = reference_env.space
    rebuilt = DatasetFamily(space)  # the recorded columns, entered one add per entry
    for h, cols in enumerate(result.dataset.columns):
        for prefix, full, prefix_weight, full_weight in zip(*cols):
            lex = [full // space.pair_count ** (space.horizon - d) for d in range(space.horizon + 1)]
            weights = [prefix_weight] * (h + 1) + [full_weight] * (space.horizon - h)  # add reads depths h and H
            assert lex[h] == prefix
            rebuilt.add(lex, weights, h)
    for beta in (cfg.beta, 0.5):
        later = constrained_mle(cands, result.dataset, cfg.p_min, beta)
        fresh = constrained_mle(cands, rebuilt, cfg.p_min, beta)
        assert [x.hex() for x in later.log_likelihoods] == [x.hex() for x in fresh.log_likelihoods]
        assert (later.selected_id, later.feasible_ids) == (fresh.selected_id, fresh.feasible_ids)


def test_finished_run_keeps_no_greedy_policy_older_than_the_last(monkeypatch):
    """The dataset records weights, not policies, so once a run returns, the greedy policy of
    every iteration before the last is unreachable, and with it that iteration's exploration
    composites and action tables."""
    import gc
    import weakref

    from psrlab import online

    planned = []
    plan = online.plan_on_table

    def recording_plan(space, leaves):
        policy, value = plan(space, leaves)
        planned.append(weakref.ref(policy))
        return policy, value

    monkeypatch.setattr(online, "plan_on_table", recording_plan)
    env = random_revealing(1, 2, 3, 2, 5)
    model, _ = default_psr(env)
    result = run_psr_ucb(env, base_config(max_iterations=20, epsilon=1e-6), make_candidates(env, "include_true"),
                         model.core_tests)
    assert len(result.logs) == len(planned) == 20 and not result.terminated
    gc.collect()
    assert [ref() is None for ref in planned[:-1]] == [True] * 19


@pytest.mark.parametrize(
    "block,iterations,epsilon",
    [(online.EPISODE_BLOCK, online.EPISODE_BLOCK + 2, 1e-6), (4, 10, 1e-6), (4, 40, 0.5)],
    ids=["module-block-crossed", "small-block-crossed", "stops-mid-block"],
)
def test_block_drawn_episodes_match_one_generator_per_episode(
    monkeypatch, reference_env, reference_model, block, iterations, epsilon
):
    """Uniforms drawn a block of iterations at a time give the dataset of one generator per
    episode, across block edges and when the loop stops inside a block; no block past the
    stopping iteration is drawn."""
    monkeypatch.setattr(online, "EPISODE_BLOCK", block)
    draws = []
    first_uniforms = online.first_uniforms
    monkeypatch.setattr(online, "first_uniforms", lambda seeds, k: draws.append(len(seeds)) or first_uniforms(seeds, k))
    cands = make_candidates(reference_env, "dithered", seed=5, n=4, scale=0.05)
    cfg = base_config(max_iterations=iterations, epsilon=epsilon)
    result = run_psr_ucb(reference_env, cfg, cands, reference_model.core_tests)
    assert_same_columns(result.dataset, oracle_online_dataset(reference_env, cfg, cands, reference_model.core_tests))
    ran = len(result.logs)
    if epsilon < 1e-3:
        assert ran == iterations and not result.terminated
    else:
        assert result.terminated and ran < iterations and ran % block
    blocks = [min(block, iterations - start) for start in range(0, ran, block)]
    assert draws == [n * reference_env.space.horizon for n in blocks]


def test_online_selection_reads_each_entry_once_into_fixed_size_sums(monkeypatch):
    """Over a 64-iteration ``online_decay`` run, the selection record gathers each recorded
    trajectory's column of the stack's leaf table exactly once, and after every read it holds
    one ``(H, C+1)`` array of sums and a ``(C,)`` stability mask, however many entries it has read."""
    import json
    from pathlib import Path

    from psrlab import estimation
    from psrlab.cli import build_candidates, build_env

    config = json.loads((Path(__file__).resolve().parents[1] / "configs" / "online_decay.json").read_text())
    env = build_env(config["env"])
    cands = build_candidates(env, config["candidates"])
    horizon, n_cands = env.space.horizon, len(cands)
    gathered = []

    class CountingTable(np.ndarray):
        def take(self, indices, axis=None, out=None, mode="raise"):
            gathered.append(len(indices))
            return np.asarray(self).take(indices, axis, out, mode)

    read = estimation._SelectionRecord.read

    def counting_read(record, prob_table, dataset):
        assert record.key is cands
        result = read(record, lambda h: prob_table(h).view(CountingTable) if h == horizon else prob_table(h), dataset)
        assert sum(gathered) == dataset.size()
        assert set(vars(record)) == {"key", "p_min", "consumed", "stable", "sums"}
        assert record.stable.shape == (n_cands,) and record.sums.shape == (horizon, n_cands + 1)
        assert record.consumed == [len(cols.trajectory) for cols in dataset.columns]
        return result

    monkeypatch.setattr(estimation._SelectionRecord, "read", counting_read)
    on = config["online"]
    cfg = OnlineConfig(max_iterations=64, epsilon=on["epsilon"], delta=on["delta"], p_min=on["p_min"], beta=on["beta"],
                       lam=on["lambda"], alpha=on["alpha"], seed=0)
    result = run_psr_ucb(env, cfg, cands, default_psr(env)[0].core_tests)
    assert len(result.logs) == 64 and not result.terminated
    assert result.dataset.size() == 64 * horizon == sum(gathered)
    assert len(gathered) == 64 * horizon  # one gather per bucket per iteration
