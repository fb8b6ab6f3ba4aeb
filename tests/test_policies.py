import numpy as np
import pytest

from conftest import make_single_state_env
from policy_oracles import oracle_policy_weight
from psrlab.errors import StructuralError
from psrlab.policies import (
    CompositePolicy,
    DeterministicTreePolicy,
    UniformActionSeqPolicy,
    policy_from_dict,
    policy_weight,
    policy_weight_vector,
    prefix_weight_tables,
    random_tree_policy,
    uniform_policy,
)
from psrlab.seeding import child_seed, rng_for
from psrlab.spaces import History, ObsActSpace, enumerate_histories


def test_deterministic_tree_weight_match_and_mismatch():
    space = ObsActSpace(2, 2, 2)
    policy = random_tree_policy(space, rng_for(0, "tree"))
    hist = History()
    steps = []
    for h in range(2):
        obs = 1
        action = int(np.argmax(policy.action_probs(hist, obs)))
        hist = hist.extend(obs, action)
        steps.append((obs, action))
    assert policy_weight(policy, hist) == 1.0
    wrong = History((steps[0], (steps[1][0], 1 - steps[1][1])))
    assert policy_weight(policy, wrong) == 0.0


def test_uniform_action_seq_weight_is_one_third():
    policy = UniformActionSeqPolicy(2, 1, ((0, 0), (0, 1), (1, 0)))
    hist = History(((0, 0), (1, 1)))  # follows (0, 1)
    assert policy_weight(policy, hist) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_uniform_action_seq_padding_weight():
    # One sequence of length 1, horizon 2: second action is uniform padding.
    policy = UniformActionSeqPolicy(2, 1, ((1,),))
    w = policy_weight(policy, History(((0, 1), (0, 0))))
    assert w == pytest.approx(0.5, abs=1e-15)
    assert policy_weight(policy, History(((0, 0),))) == 0.0


def test_uniform_policy_is_per_step_uniform():
    space = ObsActSpace(2, 3, 2)
    policy = uniform_policy(space)
    for hist in enumerate_histories(space, 2):
        assert policy_weight(policy, hist) == pytest.approx((1 / 3) ** 2, abs=1e-15)


def test_mixture_conditionals_chain_to_marginals():
    # Product of per-step conditionals equals the mixture weight of the prefix.
    policy = UniformActionSeqPolicy(2, 1, ((), (1,), (1, 0)))
    hist = History(((0, 1), (1, 0)))
    direct = policy_weight(policy, hist)
    # enumerate: sigma=() -> (1/3)(1/2)(1/2); (1,) -> (1/3)(1/2); (1,0) -> 1/3
    expected = (1 / 3) * (1 / 4) + (1 / 3) * (1 / 2) + (1 / 3)
    assert direct == pytest.approx(expected, abs=1e-15)


def test_weight_vector_sums_to_one_per_obs_branch():
    space = ObsActSpace(2, 2, 2)
    for policy in (
        uniform_policy(space),
        random_tree_policy(space, rng_for(3, "tree")),
        UniformActionSeqPolicy(2, 1, ((0,), (1, 1))),
    ):
        weights = policy_weight_vector(policy, space)
        # For each observation sequence, action-branch weights sum to 1.
        shaped = weights.reshape(2, 2, 2, 2)  # o1, a1, o2, a2
        sums = shaped.sum(axis=(1, 3))
        assert np.allclose(sums, 1.0, atol=1e-12)


def test_composite_switches_at_step():
    space = ObsActSpace(2, 2, 2)
    tables = (np.zeros(2, dtype=np.int64), np.zeros(8, dtype=np.int64))
    prefix = DeterministicTreePolicy(space, tables)
    suffix = UniformActionSeqPolicy(2, 2, ((1,),))
    comp = CompositePolicy(2, prefix, suffix)
    assert comp.action_probs(History(), 0)[0] == 1.0
    probs = comp.action_probs(History(((0, 0),)), 1)
    assert probs[1] == 1.0


def test_uniform_seq_rejects_duplicates_and_bad_actions():
    with pytest.raises(StructuralError):
        UniformActionSeqPolicy(2, 1, ((0,), (0,)))
    with pytest.raises(StructuralError):
        UniformActionSeqPolicy(2, 1, ((2,),))


def test_policy_serialization_round_trip():
    space = ObsActSpace(2, 2, 2)
    policy = CompositePolicy(
        2,
        random_tree_policy(space, rng_for(1, "tree")),
        UniformActionSeqPolicy(2, 2, ((), (1,))),
    )
    data = policy.to_dict()
    rebuilt = policy_from_dict(data, space)
    for hist in enumerate_histories(space, 2):
        assert policy_weight(rebuilt, hist) == policy_weight(policy, hist)


def test_sampling_matches_action_probs():
    env = make_single_state_env(horizon=3, n_obs=2, n_actions=2, emission_row=[1.0, 0.0])  # first obs is 0
    policy = UniformActionSeqPolicy(2, 1, ((0, 0), (1,)))
    counts = np.zeros(2)
    n = 4000
    for i in range(n):
        (_, action), *_ = env.sample_episode(policy, child_seed(9, "sample", i)).steps
        counts[action] += 1
    probs = policy.action_probs(History(), 0)
    assert np.abs(counts / n - probs).max() < 4 * np.sqrt(0.25 / n)


def test_prefix_weight_tables_equal_per_history_weights():
    space = ObsActSpace(2, 3, 3)
    policies = [
        random_tree_policy(space, rng_for(1, "prefix-tables")),
        UniformActionSeqPolicy(3, 1, ((), (1,), (2, 0))),
        CompositePolicy(
            2, random_tree_policy(space, rng_for(2, "prefix-tables")), UniformActionSeqPolicy(3, 2, ((0, 1),))
        ),
    ]
    for policy in policies:
        tables = list(prefix_weight_tables(policy, space))
        assert len(tables) == space.horizon + 1
        for h, table in enumerate(tables):
            expected = [oracle_policy_weight(policy, hist) for hist in enumerate_histories(space, h)]
            assert np.array_equal(table, expected)
        assert np.array_equal(tables[-1], policy_weight_vector(policy, space))


@pytest.mark.parametrize("bad", [-1, 2])
def test_tree_policy_rejects_out_of_range_actions(bad):
    """The public constructor, and the dict loader through it, still range-check every table."""
    space = ObsActSpace(2, 2, 2)
    tables = (np.zeros(2, dtype=np.int64), np.array([0, 1, bad, 0, 1, 1, 0, 0], dtype=np.int64))
    with pytest.raises(StructuralError, match="out of range"):
        DeterministicTreePolicy(space, tables)
    with pytest.raises(StructuralError, match="out of range"):
        policy_from_dict({"type": "deterministic_tree", "actions": [t.tolist() for t in tables]}, space)


def test_planner_policies_equal_checked_ones():
    """A planned policy, built without the range check, is the policy the public constructor accepts."""
    from psrlab.planner import plan_on_table

    space = ObsActSpace(2, 3, 3)
    leaves = np.random.default_rng(7).random(space.n_trajectories)
    planned, _ = plan_on_table(space, leaves)
    checked = DeterministicTreePolicy(space, tuple(table.copy() for table in planned.actions_by_step))
    assert planned.to_dict() == checked.to_dict()
    with pytest.raises(StructuralError, match="shape"):
        DeterministicTreePolicy._from_valid_tables(space, planned.actions_by_step[:1] + planned.actions_by_step[:1] * 2)
