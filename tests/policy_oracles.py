"""Per-history reference implementations of the policy and sampling paths.

These are the loops the package ran before policies were compiled into
per-step tables: an action row built by walking the mixture sequences per
query, weights multiplied one history at a time, the coverage coefficient
enumerating every history, and a sampler drawing every observation, action
and state with ``Generator.choice``.  Tests compare the
table lookups against them bit for bit, and build hand-made dataset entries
through them.  :func:`action_row` is the package's own row for one
(history, obs) node, read through :func:`reached_rows`, and
:func:`exploration_policy` composes one step's exploration policy from a
prefix policy and the core tests.
"""

import math

import numpy as np

from pomdp_oracles import history_from_lex, oracle_exact_traj_prob
from psrlab.errors import StructuralError
from psrlab.online import _explore, exploration_suffixes
from psrlab.policies import CompositePolicy, DeterministicTreePolicy, Policy, reached_rows
from psrlab.psr import CoreTestSet
from psrlab.spaces import History, enumerate_histories


def action_row(policy, space, history, obs):
    """The policy's compiled action row at (``history``, ``obs``): ``reached_rows`` at the history's node."""
    return reached_rows(policy, space, len(history) + 1, history.lex_index(space) * space.n_obs + obs)


def oracle_action_probs(policy, history, obs):
    if isinstance(policy, CompositePolicy):
        inner = policy.prefix if len(history) + 1 < policy.switch_step else policy.suffix
        return oracle_action_probs(inner, history, obs)
    if isinstance(policy, DeterministicTreePolicy):
        space = policy.space
        node = history.lex_index(space) * space.n_obs + obs
        probs = np.zeros(space.n_actions)
        probs[int(policy.actions_by_step[len(history)][node])] = 1.0
        return probs
    pos = len(history) - (policy.start_step - 1)
    if pos < 0:
        raise StructuralError(f"queried step {len(history) + 1} before start step {policy.start_step}")
    taken = tuple(a for _, a in history.steps[policy.start_step - 1 :])
    probs = np.zeros(policy.n_actions)
    total = 0.0
    for seq in policy.sequences:
        overlap = min(len(seq), len(taken))
        if seq[:overlap] != taken[:overlap]:
            continue
        w = (1.0 / len(policy.sequences)) * (1.0 / policy.n_actions) ** max(0, len(taken) - len(seq))
        if w == 0.0:
            continue
        total += w
        if pos < len(seq):
            probs[seq[pos]] += w
        else:
            probs += w / policy.n_actions
    if total <= 0.0:
        raise StructuralError("history inconsistent with every mixture sequence")
    return probs / total


def oracle_policy_weight(policy, history):
    weight = 1.0
    for j, (o, a) in enumerate(history.steps):
        weight *= float(oracle_action_probs(policy, History(history.steps[:j]), o)[a])
        if weight == 0.0:
            return 0.0
    return weight


def oracle_record(policy, space, history):
    """The lex index and policy weight of each prefix of ``history``, depth 0..len, as the samplers return them."""
    prefixes = [History(history.steps[:h]) for h in range(len(history) + 1)]
    return [p.lex_index(space) for p in prefixes], [oracle_policy_weight(policy, p) for p in prefixes]


def add_history(dataset, policy, history, split_step):
    """Add ``history`` to bucket ``split_step`` as a sampler drawing it under ``policy`` records it."""
    dataset.add(*oracle_record(policy, dataset.space, history), split_step)


def seed_uniforms(space, seed):
    """The uniforms of the episode drawn on ``seed``: the first ``3H - 1`` doubles of ``default_rng(seed)``."""
    return np.random.default_rng(seed).random(3 * space.horizon - 1).tolist()


def add_drawn(dataset, env, policy, seed, split_step):
    """Add the episode ``env.sample_episode`` draws under ``policy`` on ``seed``, and return its trajectory."""
    lex, weights = env.sample_episode(policy, seed_uniforms(env.space, seed))
    dataset.add(lex, weights, split_step)
    return history_from_lex(env.space, env.space.horizon, lex[-1])


def drawn_history(env, policy, seed):
    """The trajectory ``env.sample_episode`` draws on ``seed``."""
    return history_from_lex(env.space, env.space.horizon, env.sample_episode(policy, seed_uniforms(env.space, seed))[0][-1])


def oracle_continuation_weights(policy, prefix, space):
    """Weights of all continuations of one prefix, built one history at a time."""
    weights = np.ones(1)
    hists = [prefix]
    for _ in range(len(prefix), space.horizon):
        new_weights = np.empty(len(hists) * space.pair_count)
        new_hists = []
        for i, hist in enumerate(hists):
            base = i * space.pair_count
            for o in range(space.n_obs):
                probs = oracle_action_probs(policy, hist, o) if weights[i] > 0 else np.zeros(space.n_actions)
                new_weights[base + o * space.n_actions : base + (o + 1) * space.n_actions] = weights[i] * probs
                for a in range(space.n_actions):
                    new_hists.append(hist.extend(o, a))
        weights = new_weights
        hists = new_hists
    return weights


def oracle_weight_vector(policy, space):
    weights = np.ones(1)
    for j in range(space.horizon):
        prev = weights
        weights = np.empty(len(prev) * space.pair_count)
        for idx, hist in enumerate(enumerate_histories(space, j)):
            base = idx * space.pair_count
            if prev[idx] == 0.0:
                weights[base : base + space.pair_count] = 0.0
                continue
            for o in range(space.n_obs):
                probs = oracle_action_probs(policy, hist, o)
                weights[base + o * space.n_actions : base + (o + 1) * space.n_actions] = prev[idx] * probs
    return weights


def oracle_coverage_coefficient(env, target, behavior):
    space = env.space
    worst = 1.0
    for h in range(space.horizon + 1):
        for hist in enumerate_histories(space, h):
            if oracle_exact_traj_prob(env, hist) <= 0.0:
                continue
            wt = oracle_policy_weight(target, hist)
            if wt == 0.0:
                continue
            wb = oracle_policy_weight(behavior, hist)
            if wb == 0.0:
                return math.inf
            worst = max(worst, wt / wb)
    return worst


def oracle_sample_episode(env, policy, seed):
    """One episode drawn step by step with ``Generator.choice``."""
    rng = np.random.default_rng(seed)
    state = env.initial_state
    hist = History()
    for h in range(1, env.space.horizon + 1):
        obs = int(rng.choice(env.space.n_obs, p=env.emission[h - 1, state]))
        probs = oracle_action_probs(policy, hist, obs)
        action = int(rng.choice(len(probs), p=probs))
        hist = hist.extend(obs, action)
        if h < env.space.horizon:
            state = int(rng.choice(env.n_states, p=env.transition[h - 1, action, state]))
    return hist


def exploration_policy(prefix: Policy, h: int, core_tests: CoreTestSet) -> Policy:
    """Prefix policy before step ``h``, uniform exploration from ``h`` on.

    Exploration draws one action sequence uniformly from the step-``h-1``
    exploration set; sequences shorter than the remaining horizon are padded
    with uniform random actions, and the padding is part of the policy so
    its weights stay exact.
    """
    return _explore(prefix, h, exploration_suffixes(core_tests))
