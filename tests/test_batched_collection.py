"""Batched offline collection against its scalar oracles, bit for bit.

``first_uniforms`` against ``default_rng(seed).random``,
``TabularPomdp.sample_episodes`` against one ``sample_episode`` per seed,
and ``DatasetFamily.add_batch`` against ``add`` entry by entry: every
column, numbers to the bit and policy ids by equality.  Misuse raises the same error class
in both paths.
"""

from bisect import bisect_right

import numpy as np
import pytest

from conftest import assert_same_columns
from psrlab.errors import StructuralError
from psrlab.estimation import DatasetFamily
from psrlab.offline import BEHAVIOR_POLICY_ID, collect_offline
from psrlab.policies import (
    CompositePolicy,
    DeterministicTreePolicy,
    UniformActionSeqPolicy,
    random_tree_policy,
    uniform_policy,
)
from psrlab.pomdp import TabularPomdp, _inverse_cdf, near_tie, tiger
from psrlab.seeding import child_seed, first_uniforms, rng_for
from psrlab.spaces import History
from psrlab.verify import small_builtin_envs

ENVS = small_builtin_envs() + [("near_tie", near_tie())]
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def behaviours(space):
    """Uniform, random tree, ragged mixture, and a tree prefix with a mixture suffix."""
    A = space.n_actions
    ragged = tuple(dict.fromkeys(((), (A - 1,), (A - 1, 0), tuple(k % A for k in range(space.horizon)))))
    tree = random_tree_policy(space, rng_for(3, "batched-tree"))
    return {
        "uniform": uniform_policy(space),
        "tree": tree,
        "ragged": UniformActionSeqPolicy(A, 1, ragged),
        "composite": CompositePolicy(2, tree, UniformActionSeqPolicy(A, 2, ragged)),
    }


def sequential_collect(env, behavior, n_episodes, seed):
    """``collect_offline`` one episode at a time: ``sample_episode`` then ``add``."""
    space = env.space
    if n_episodes < space.horizon:
        raise StructuralError("need at least H episodes for a full split")
    assignment = np.array([i % space.horizon for i in range(n_episodes)])
    rng_for(seed, "offline-split").shuffle(assignment)
    dataset = DatasetFamily(space, {BEHAVIOR_POLICY_ID: behavior})
    for i in range(n_episodes):
        trajectory = env.sample_episode(behavior, child_seed(seed, "offline-episode", i))
        dataset.add(BEHAVIOR_POLICY_ID, trajectory, int(assignment[i]))
    return dataset


def assert_same_dataset(got, want):
    assert got.policies == want.policies
    assert_same_columns(got, want)


def inconsistent_composite(space):
    """Always plays the last action first, then a mixture whose only sequence starts with action 0."""
    last = tuple(np.full(space.n_histories(h - 1) * space.n_obs, space.n_actions - 1) for h in range(1, space.horizon + 1))
    return CompositePolicy(2, DeterministicTreePolicy(space, last), UniformActionSeqPolicy(space.n_actions, 1, ((0,),)))


def test_first_uniforms_match_default_rng_bit_for_bit():
    seeds = [child_seed(0, "offline-episode", i) for i in range(10_000)] + EDGE_SEEDS
    got = first_uniforms(seeds, 11)
    want = np.array([np.random.default_rng(s).random(11) for s in seeds])
    assert got.dtype == np.float64 and got.shape == (len(seeds), 11)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", EDGE_SEEDS)
def test_first_uniforms_edge_seed_alone(seed):
    assert first_uniforms([seed], 3).tobytes() == np.random.default_rng(seed).random(3).tobytes()


def test_first_uniforms_empty():
    assert first_uniforms([], 5).shape == (0, 5)
    assert first_uniforms([7, 8], 0).shape == (2, 0)


def test_inverse_cdf_is_bisect_right_at_ties():
    cdf = np.array([0.0, 0.25, 0.25, 0.75, 1.0])
    uniforms = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 0.999])
    got = _inverse_cdf(np.tile(cdf, (len(uniforms), 1)), uniforms)
    assert got.tolist() == [bisect_right(cdf.tolist(), u) for u in uniforms.tolist()]


@pytest.mark.parametrize("name,env", ENVS, ids=[name for name, _ in ENVS])
def test_sample_episodes_match_sample_episode(name, env):
    seeds = [child_seed(1, "batched-sampler", i) for i in range(200)]
    for kind, policy in behaviours(env.space).items():
        obs, actions = env.sample_episodes(policy, seeds)
        assert obs.shape == actions.shape == (len(seeds), env.space.horizon)
        got = [History(tuple(zip(o, a))) for o, a in zip(obs.tolist(), actions.tolist())]
        assert got == [env.sample_episode(policy, s) for s in seeds], kind


@pytest.mark.parametrize("name,env", ENVS, ids=[name for name, _ in ENVS])
def test_collect_offline_matches_sequential_add(name, env):
    for kind, policy in behaviours(env.space).items():
        for seed in range(2):
            n = 150 + seed
            assert_same_dataset(collect_offline(env, policy, n, seed), sequential_collect(env, policy, n, seed)), kind


def test_collect_offline_uses_the_batched_paths(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scalar path called")

    env = near_tie()
    want = sequential_collect(env, uniform_policy(env.space), 40, 3)
    monkeypatch.setattr(TabularPomdp, "sample_episode", refuse)
    monkeypatch.setattr(DatasetFamily, "add", refuse)
    assert_same_dataset(collect_offline(env, uniform_policy(env.space), 40, 3), want)


def test_add_batch_zero_weight_entries_match_add():
    space = tiger(2).space
    policy = inconsistent_composite(space)
    # The tree never plays a first action other than the last one, so these
    # entries have zero weight when they reach a mixture row that is invalid
    # (first action 1) or valid (first action 0); neither path raises.
    obs = np.array([[0, 1], [1, 0], [1, 1]])
    actions = np.array([[1, 0], [1, 2], [0, 1]])
    split = np.array([1, 0, 1])
    got = DatasetFamily(space, {"p": policy})
    got.add_batch("p", obs, actions, split)
    want = DatasetFamily(space, {"p": policy})
    for o, a, h in zip(obs.tolist(), actions.tolist(), split.tolist()):
        want.add("p", History(tuple(zip(o, a))), h)
    assert_same_dataset(got, want)


def test_inconsistent_mixture_history_raises_in_both_paths():
    env = near_tie()
    space = env.space
    policy = inconsistent_composite(space)
    with pytest.raises(StructuralError):
        env.sample_episode(policy, 5)
    with pytest.raises(StructuralError):
        env.sample_episodes(policy, [5, 6])
    trajectory = History(((0, space.n_actions - 1), (0, 0)))
    with pytest.raises(StructuralError):
        DatasetFamily(space, {"p": policy}).add("p", trajectory, 0)
    with pytest.raises(StructuralError):
        DatasetFamily(space, {"p": policy}).add_batch("p", [[0, 0]], [[space.n_actions - 1, 0]], [0])


@pytest.mark.parametrize(
    "policy_id,obs,actions,split",
    [
        ("u", [[0, 0]], [[0, 0]], [2]),  # split step past the last bucket
        ("u", [[0, 0]], [[0, 0]], [-1]),
        ("nope", [[0, 0]], [[0, 0]], [0]),  # unknown policy id
        ("u", [[0, 2]], [[0, 0]], [0]),  # observation out of range
        ("u", [[0, 0]], [[0, -1]], [0]),  # action out of range
        ("u", [[0]], [[0]], [0]),  # short trajectory
    ],
    ids=["split-high", "split-negative", "unknown-policy", "obs-range", "action-range", "short"],
)
def test_add_batch_rejects_what_add_rejects(policy_id, obs, actions, split):
    space = near_tie().space
    policies = {"u": uniform_policy(space)}
    with pytest.raises(StructuralError):
        DatasetFamily(space, dict(policies)).add(policy_id, History(tuple(zip(obs[0], actions[0]))), split[0])
    dataset = DatasetFamily(space, dict(policies))
    with pytest.raises(StructuralError):
        dataset.add_batch(policy_id, obs, actions, split)
    assert dataset.size() == 0 and not any(any(cols) for cols in dataset.columns)


def test_collect_offline_needs_a_full_split():
    env = near_tie()
    with pytest.raises(StructuralError):
        collect_offline(env, uniform_policy(env.space), env.space.horizon - 1, seed=0)
    with pytest.raises(StructuralError):
        sequential_collect(env, uniform_policy(env.space), env.space.horizon - 1, seed=0)
