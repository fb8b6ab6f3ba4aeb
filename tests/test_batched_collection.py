"""Batched offline collection against its scalar oracles, bit for bit.

``child_seeds`` against ``child_seed``, ``first_uniforms`` against
``default_rng(seed).random``,
``TabularPomdp.sample_episodes`` against one ``sample_episode`` per seed and
both against the per-history lex indices and policy weights of the drawn
trajectory, and ``DatasetFamily.add_batch`` against ``add`` entry by entry:
every column to the bit.  Misuse raises the same error class in both paths.
"""

import sys
from bisect import bisect_right

import numpy as np
import pytest

from conftest import assert_same_columns
from policy_oracles import oracle_policy_weight, oracle_record, random_tree_policy, seed_uniforms
from pomdp_oracles import history_from_lex
from psrlab import policies
from psrlab.errors import StructuralError
from psrlab.estimation import DatasetFamily
from psrlab.offline import collect_offline
from psrlab.policies import (
    CompositePolicy,
    DeterministicTreePolicy,
    UniformActionSeqPolicy,
    uniform_policy,
)
from psrlab.pomdp import TabularPomdp, _inverse_cdf, near_tie, tiger
from psrlab.seeding import child_seed, child_seeds, first_uniforms, rng_for
from psrlab.spaces import History, ObsActSpace
from psrlab.verify import small_builtin_envs

ENVS = small_builtin_envs() + [("near_tie", near_tie())]
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


def behaviours(space):
    """Uniform, random tree, ragged mixture, and a tree prefix with a mixture suffix."""
    A = space.n_actions
    ragged = tuple(dict.fromkeys(((), (A - 1,), (A - 1, 0), tuple(k % A for k in range(space.horizon)))))
    tree = random_tree_policy(space, child_seed(3, "batched-tree"))
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
    dataset = DatasetFamily(space)
    for i in range(n_episodes):
        lex, weights = env.sample_episode(behavior, seed_uniforms(space, child_seed(seed, "offline-episode", i)))
        dataset.add(lex, weights, int(assignment[i]))
    return dataset


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


@pytest.mark.parametrize("master", [0, 7, 2**64 - 1, -3])
def test_child_seeds_match_child_seed(master):
    for purpose, indices in [("offline-episode", range(500)), ("validity-policy", [0, 9, 10, 99, 100, 2**40]), ("x", [])]:
        got = child_seeds(master, purpose, indices)
        assert got.dtype == np.uint64 and got.shape == (len(indices),)
        assert [int(v) for v in got] == [child_seed(master, purpose, i) for i in indices]


def test_inverse_cdf_is_bisect_right_at_ties():
    cdf = np.array([0.0, 0.25, 0.25, 0.75, 1.0])
    uniforms = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 0.999])
    got = _inverse_cdf(np.tile(cdf, (len(uniforms), 1)), uniforms)
    assert got.tolist() == [bisect_right(cdf.tolist(), u) for u in uniforms.tolist()]


def hexed(weights):
    return [float(w).hex() for w in weights]


@pytest.mark.parametrize("name,env", ENVS, ids=[name for name, _ in ENVS])
def test_sample_episodes_match_sample_episode(name, env):
    """Column ``i`` of the batched draw is the scalar draw on ``seeds[i]``, and both are the lex
    indices and per-history oracle weights of the drawn trajectory's prefixes, to the bit."""
    space = env.space
    seeds = [child_seed(1, "batched-sampler", i) for i in range(200)]
    for kind, policy in behaviours(space).items():
        lex, weights = env.sample_episodes(policy, seeds)
        assert lex.shape == weights.shape == (space.horizon + 1, len(seeds))
        assert lex.dtype == np.int64 and weights.dtype == np.float64
        for i, seed in enumerate(seeds):
            one_lex, one_weights = env.sample_episode(policy, seed_uniforms(space, seed))
            trajectory = history_from_lex(space, space.horizon, one_lex[-1])
            want = [History(trajectory.steps[:h]) for h in range(space.horizon + 1)]
            assert lex[:, i].tolist() == one_lex == [p.lex_index(space) for p in want], kind
            oracle = [oracle_policy_weight(policy, p) for p in want]
            assert hexed(weights[:, i]) == hexed(one_weights) == hexed(oracle), kind


@pytest.mark.parametrize("name,env", ENVS, ids=[name for name, _ in ENVS])
def test_collect_offline_matches_sequential_add(name, env):
    for kind, policy in behaviours(env.space).items():
        for seed in range(2):
            n = 150 + seed
            assert_same_columns(collect_offline(env, policy, n, seed), sequential_collect(env, policy, n, seed)), kind


def test_collect_offline_walks_the_policy_once(monkeypatch):
    """Ingest reads no policy row: the sampler's one ``reached_rows`` call per step is the only walk."""
    original = policies.reached_rows
    calls = []

    def counting(policy, space, h, *args, **kwargs):
        calls.append(h)
        return original(policy, space, h, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("psrlab") and getattr(module, "reached_rows", None) is original:
            monkeypatch.setattr(module, "reached_rows", counting)
    env = near_tie()
    for kind, policy in behaviours(env.space).items():
        calls.clear()
        collect_offline(env, policy, 40, 3)
        assert calls == list(range(1, env.space.horizon + 1)), kind


class CountingRows:
    """Forwards ``_rows`` to ``policy``, recording the step of each call."""

    def __init__(self, policy):
        self.policy = policy
        self.steps = []

    def _rows(self, space, h, nodes):
        self.steps.append(h)
        return self.policy._rows(space, h, nodes)


@pytest.mark.parametrize("name,env", ENVS, ids=[name for name, _ in ENVS])
def test_sample_episode_reads_one_row_per_step(name, env):
    """The scalar sampler asks the policy for its rows once per step, at steps 1..H in order."""
    for kind, policy in behaviours(env.space).items():
        counting = CountingRows(policy)
        for seed in range(5):
            counting.steps.clear()
            uniforms = seed_uniforms(env.space, seed)
            assert env.sample_episode(counting, uniforms) == env.sample_episode(policy, uniforms), kind
            assert counting.steps == list(range(1, env.space.horizon + 1)), kind


def test_collect_offline_uses_the_batched_paths(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scalar path called")

    env = near_tie()
    want = sequential_collect(env, uniform_policy(env.space), 40, 3)
    monkeypatch.setattr(TabularPomdp, "sample_episode", refuse)
    monkeypatch.setattr(DatasetFamily, "add", refuse)
    assert_same_columns(collect_offline(env, uniform_policy(env.space), 40, 3), want)


def test_add_batch_zero_weight_entries_match_add():
    space = tiger(2).space
    policy = inconsistent_composite(space)
    # The tree never plays a first action other than the last one, so these
    # hand-made entries have zero weight when they reach a mixture row that
    # is invalid (first action 1) or valid (first action 0); neither path
    # reads a policy row, so both append them as given.
    histories = [History(((0, 1), (1, 0))), History(((1, 1), (0, 2))), History(((1, 0), (1, 1)))]
    records = [oracle_record(policy, space, history) for history in histories]
    assert [weights[-1] for _, weights in records] == [0.0, 0.0, 0.0]
    split = [1, 0, 1]
    got = DatasetFamily(space)
    got.add_batch(np.array([lex for lex, _ in records]).T, np.array([w for _, w in records]).T, split)
    want = DatasetFamily(space)
    for (lex, weights), h in zip(records, split):
        want.add(lex, weights, h)
    assert_same_columns(got, want)


def test_inconsistent_mixture_history_raises_in_both_paths():
    env = near_tie()
    policy = inconsistent_composite(env.space)
    with pytest.raises(StructuralError):
        env.sample_episode(policy, seed_uniforms(env.space, 5))
    with pytest.raises(StructuralError):
        env.sample_episodes(policy, [5, 6])


@pytest.mark.parametrize("kind", ["mixture", "tree"])
def test_policy_with_another_action_count_raises_in_both_samplers(kind):
    """A policy over one action more than the space from the last step on, where no transition follows."""
    env = near_tie()
    space = env.space
    if kind == "mixture":
        wider = UniformActionSeqPolicy(space.n_actions + 1, space.horizon, ((),))
    else:
        wider = random_tree_policy(ObsActSpace(space.n_obs, space.n_actions + 1, space.horizon), child_seed(0, "wider"))
    policy = CompositePolicy(space.horizon, uniform_policy(space), wider)
    with pytest.raises(StructuralError, match="actions"):
        env.sample_episode(policy, seed_uniforms(space, 0))
    with pytest.raises(StructuralError, match="actions"):
        env.sample_episodes(policy, [0, 1])


@pytest.mark.parametrize(
    "lex,split",
    [
        ([[0], [0], [0]], [2]),  # split step past the last bucket
        ([[0], [0], [0]], [-1]),
        ([[0], [4], [0]], [1]),  # prefix index past depth 1's histories
        ([[0], [0], [16]], [0]),  # trajectory index past the leaves
        ([[0], [0], [-1]], [0]),
        ([[0], [0]], [0]),  # short record
    ],
    ids=["split-high", "split-negative", "prefix-range", "trajectory-range", "negative", "short"],
)
def test_add_batch_rejects_what_add_rejects(lex, split):
    space = near_tie().space
    assert space.pair_count == 4 and space.horizon == 2
    weights = [[1.0]] * len(lex)
    with pytest.raises(StructuralError):
        DatasetFamily(space).add([row[0] for row in lex], [1.0] * len(lex), split[0])
    dataset = DatasetFamily(space)
    with pytest.raises(StructuralError):
        dataset.add_batch(lex, weights, split)
    assert dataset.size() == 0 and not any(any(cols) for cols in dataset.columns)


def test_collect_offline_needs_a_full_split():
    env = near_tie()
    with pytest.raises(StructuralError):
        collect_offline(env, uniform_policy(env.space), env.space.horizon - 1, seed=0)
    with pytest.raises(StructuralError):
        sequential_collect(env, uniform_policy(env.space), env.space.horizon - 1, seed=0)
