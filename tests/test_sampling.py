"""Compiled policy rows, weights and the inverse-CDF sampler against per-history oracles."""

import numpy as np
import pytest

from policy_oracles import (
    action_row,
    oracle_action_probs,
    oracle_continuation_weights,
    oracle_record,
    oracle_sample_episode,
    oracle_weight_vector,
    random_tree_policy,
    seed_uniforms,
)
from pomdp_oracles import history_from_lex
from psrlab.errors import StructuralError
from psrlab.policies import (
    CompositePolicy,
    UniformActionSeqPolicy,
    continuation_weights,
    policy_weight_vector,
    uniform_policy,
)
from psrlab.pomdp import RewardTable, TabularPomdp
from psrlab.seeding import child_seed
from psrlab.spaces import enumerate_histories
from psrlab.verify import reference_env, small_builtin_envs

ENVS = small_builtin_envs()


def policy_zoo(space):
    """Uniform, ragged and empty sequences, a tree policy, and composites at every switch step."""
    A, H = space.n_actions, space.horizon
    ragged = tuple(dict.fromkeys(((), (0,), (A - 1, 0), tuple(k % A for k in range(H)))))
    no_empty = ((0,), (A - 1, 0)) if A > 1 else ((0,),)  # some action sequences match no mixture sequence
    tree = random_tree_policy(space, child_seed(7, "zoo-tree"))
    zoo = [
        ("uniform", uniform_policy(space)),
        ("ragged", UniformActionSeqPolicy(A, 1, ragged)),
        ("no-empty", UniformActionSeqPolicy(A, 1, no_empty)),
        ("tree", tree),
    ]
    for s in range(2, H + 1):
        zoo += [
            (f"tree|ragged@{s}", CompositePolicy(s, tree, UniformActionSeqPolicy(A, s, ragged))),
            (f"tree|no-empty@{s}", CompositePolicy(s, tree, UniformActionSeqPolicy(A, s, no_empty))),
            (f"uniform|ragged-from-1@{s}", CompositePolicy(s, uniform_policy(space), UniformActionSeqPolicy(A, 1, ragged))),
        ]
    return zoo


def same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,env", ENVS, ids=[name for name, _ in ENVS])
def test_compiled_rows_match_oracle_on_every_node(name, env):
    space = env.space
    for label, policy in policy_zoo(space):
        for h in range(space.horizon):
            for hist in enumerate_histories(space, h):
                for o in range(space.n_obs):
                    try:
                        want = oracle_action_probs(policy, hist, o)
                    except StructuralError:
                        with pytest.raises(StructuralError):
                            action_row(policy, space, hist, o)
                        continue
                    assert same_bits(action_row(policy, space, hist, o), want), (label, hist, o)


@pytest.mark.parametrize("name,env", ENVS, ids=[name for name, _ in ENVS])
def test_weights_match_oracle(name, env):
    space = env.space
    for label, policy in policy_zoo(space):
        assert same_bits(policy_weight_vector(policy, space), oracle_weight_vector(policy, space)), label
        for h in range(space.horizon + 1):
            rows, ok = [], []
            for idx in range(space.n_histories(h)):
                prefix = history_from_lex(space, h, idx)
                try:
                    want = oracle_continuation_weights(policy, prefix, space)
                except StructuralError:
                    with pytest.raises(StructuralError):
                        continuation_weights(policy, space, h, [idx])
                    continue
                assert same_bits(continuation_weights(policy, space, h, [idx])[0], want), (label, prefix)
                rows.append(want)
                ok.append(idx)
            assert same_bits(continuation_weights(policy, space, h, ok), np.array(rows).reshape(len(ok), -1)), label


@pytest.mark.parametrize("name,env", ENVS, ids=[name for name, _ in ENVS])
def test_sample_episode_matches_choice_sampler_draw_for_draw(name, env):
    zoo = dict(policy_zoo(env.space))
    kinds = ["uniform", "ragged", "tree", f"tree|no-empty@{env.space.horizon}"]
    for kind in kinds:
        for i in range(1000):
            seed = child_seed(i, "draw-for-draw", len(kind))
            want = oracle_record(zoo[kind], env.space, oracle_sample_episode(env, zoo[kind], seed))
            assert env.sample_episode(zoo[kind], seed_uniforms(env.space, seed)) == want, (kind, seed)


class DistortedMixture(UniformActionSeqPolicy):
    """A mixture whose rows after the first step are replaced by ``bad``."""

    def __init__(self, n_actions, start_step, sequences, bad):
        super().__init__(n_actions, start_step, sequences)
        object.__setattr__(self, "bad", bad)

    def _mixture_row(self, taken):
        row = super()._mixture_row(taken)
        return np.array(self.bad) if taken and row is not None else row


@pytest.mark.parametrize("bad", [[0.75, 0.75], [-0.5, 1.5], [np.nan, 1.0]], ids=["sum", "negative", "nan"])
def test_malformed_policy_row_raises_naming_the_step(bad):
    env = reference_env()
    policy = DistortedMixture(env.space.n_actions, 1, ((),), bad)
    with pytest.raises(StructuralError, match="step 2"):
        policy_weight_vector(policy, env.space)
    fresh = DistortedMixture(env.space.n_actions, 1, ((),), bad)
    with pytest.raises(StructuralError, match="step 2"):
        env.sample_episode(fresh, seed_uniforms(env.space, 0))


@pytest.mark.parametrize("row,message", [([np.nan, 0.5, 0.5], "NaN"), ([np.inf, 0.0, 0.0], "sum to 1")])
def test_environment_rows_must_be_finite(row, message):
    env = reference_env()
    emission = env.emission.copy()
    emission[0, 0] = row
    with pytest.raises(StructuralError, match=message):
        TabularPomdp(env.n_states, env.space, env.transition, emission, 0, RewardTable(env.reward.table))
