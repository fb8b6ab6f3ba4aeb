import itertools
import json
import math
import re

import numpy as np
import pytest

from conftest import growing_model, make_single_state_env, model_from_arrays
from policy_oracles import drawn_history
from pomdp_oracles import prediction_feature, psi, seq_prob
from psrlab.errors import DegenerateHistory, StructuralError
from psrlab.planner import policy_value_on_table
from psrlab.policies import random_tree_policy, uniform_policy, policy_weight_vector
from psrlab.pomdp import default_psr, random_revealing
from psrlab.psr import (
    PSI_GUARD,
    PsrModel,
    PsrStack,
    check_self_consistency,
    conditional_update_violation,
    gamma,
    hellinger_sq,
    make_core_test_set,
    sup_weighted_abs,
    terminal_anchor_violation,
    tv_distance,
)
from psrlab.seeding import child_seed
from psrlab.spaces import Future, History, ObsActSpace, enumerate_histories


def scalar_identity_model():
    """H=1, one observation, two actions, one-dimensional state."""
    space = ObsActSpace(1, 2, 1)
    core = make_core_test_set(space, [(Future(0, (0,), ()),)])
    M = (np.ones((1, 2, 1, 1)),)
    return model_from_arrays(space, core, np.ones(1), M, (np.ones(1), np.ones(1)))


def emission_pair_models(row_a, row_b):
    """Two H=1 single-state models differing only in the emission row."""
    env_a = make_single_state_env(horizon=1, emission_row=np.array(row_a), n_actions=2)
    env_b = make_single_state_env(horizon=1, emission_row=np.array(row_b), n_actions=2)
    return default_psr(env_a)[0], default_psr(env_b)[0]


def test_seq_prob_empty_history(small_model):
    assert seq_prob(small_model, History()) == 1.0


def test_seq_prob_deterministic_emission():
    env = make_single_state_env(horizon=1, emission_row=np.array([1.0, 0.0]), n_actions=2)
    model, _ = default_psr(env)
    assert seq_prob(model, History(((0, 1),))) == pytest.approx(1.0, abs=1e-12)
    assert seq_prob(model, History(((1, 0),))) == pytest.approx(0.0, abs=1e-12)


def test_seq_prob_matches_forward_oracle(small_env, small_model):
    hist = History(((0, 1), (1, 0)))
    assert seq_prob(small_model, hist) == pytest.approx(0.1821476242042046, abs=1e-10)
    total = 0.0
    for seq in itertools.product(range(2), repeat=2):
        if seq[0] != small_env.initial_state:
            continue
        total += (
            small_env.emission[0, seq[0], 0]
            * small_env.transition[0, 1, seq[0], seq[1]]
            * small_env.emission[1, seq[1], 1]
        )
    assert seq_prob(small_model, hist) == pytest.approx(total, abs=1e-10)


def test_seq_prob_dimension_mismatch_is_structural():
    model = scalar_identity_model()
    with pytest.raises(StructuralError, match="^M at step 1 expects input dim 2, got 1$"):
        model_from_arrays(model.space, model.core_tests, np.ones(2), model.M, model.phi)


def test_prediction_feature_empty_history(small_model):
    feat = prediction_feature(small_model, History())
    expected = small_model.psi0 / float(small_model.phi[0] @ small_model.psi0)
    assert np.allclose(feat, expected, atol=1e-15)


def test_prediction_feature_is_conditional_test_prob(small_env, small_model):
    # brute force: P(test obs | history, test actions) via hidden-state sums
    def oracle(hist, test):
        base = small_env.exact_traj_prob(hist)
        vec = small_env.test_probs([test], len(hist) + 1)[0]
        belief = small_env.belief_table(len(hist))[hist.lex_index(small_env.space)]
        return float(vec @ belief) / base

    for h in range(small_env.space.horizon):
        feats = small_model.feature_table(h)
        probs = small_model.prob_table(h)
        for idx, hist in enumerate(enumerate_histories(small_env.space, h)):
            if probs[idx] <= 1e-12:
                continue
            for l, test in enumerate(small_model.core_tests.tests[h]):
                assert feats[idx, l] == pytest.approx(oracle(hist, test), abs=1e-9)


def test_feature_table_is_built_once_read_only(small_model):
    for h in range(small_model.space.horizon + 1):
        feats = small_model.feature_table(h)
        assert small_model.feature_table(h) is feats
        assert not feats.flags.writeable


def test_feature_table_follows_a_later_stack(small_env):
    """A model's features divide its row of its own stack's tables: the same parameters as a member
    of a later stack get the same bits from that stack's rows, and the model keeps its own."""
    model, _ = default_psr(small_env)
    other, _ = default_psr(random_revealing(seed=8, n_states=2, n_obs=2, n_actions=2, horizon=3))
    own = model.feature_table(2)
    member = PsrStack.concatenate((other.stack, model.stack)).members()[1]
    stacked = member.feature_table(2)
    assert stacked is not own and stacked.tobytes() == own.tobytes()
    psis, probs = (table[1] for table in member.stack.tables(2))
    assert np.array_equal(stacked, psis / probs[:, None])
    assert model.feature_table(2) is own


def _features_from_states(model, h):
    """Features and degenerate flags divided from the state table, the probability as ``states @ phi``."""
    states = model.state_table(h)
    probs = (states @ model.phi[h][:, None])[:, 0]
    bad = ~(probs > PSI_GUARD)
    return np.where(bad[:, None], 0.0, states / np.where(bad, 1.0, probs)[:, None]), bad


@pytest.mark.parametrize("kind", ["never-emits", "grows-past-guard", "revealing"])
def test_degenerate_rows_are_zero_and_flagged(kind):
    if kind == "never-emits":
        model, _ = default_psr(make_single_state_env(horizon=3, n_obs=2, n_actions=2, emission_row=np.array([1.0, 0.0])))
    elif kind == "grows-past-guard":
        model = growing_model()
    else:
        model, _ = default_psr(random_revealing(seed=8, n_states=2, n_obs=2, n_actions=2, horizon=3))
    space = model.space
    prefixes = np.zeros(1, dtype=bool)
    for h in range(space.horizon + 1):
        want, bad = _features_from_states(model, h)
        prefixes = bad | np.repeat(prefixes, space.pair_count if h else 1)
        feats, mask, flagged = model.feature_table(h), model.degenerate_mask(h), model.degenerate_prefixes(h)
        assert feats.tobytes() == want.tobytes()
        assert mask.tolist() == bad.tolist() and flagged.tolist() == prefixes.tolist()
        assert not (feats.flags.writeable or mask.flags.writeable or flagged.flags.writeable)
    if kind == "grows-past-guard":  # a child above the guard under a degenerate parent is flagged only as a prefix
        assert model.degenerate_mask(1).tolist() == [False, True]
        assert model.degenerate_mask(2).tolist() == [False] * 4
        assert model.degenerate_prefixes(2).tolist() == [False, False, True, True]
        assert not model.degenerate_mask(3).any() and model.degenerate_prefixes(3)[4:].all()


def test_prediction_feature_degenerate_guard():
    env = make_single_state_env(horizon=2, emission_row=np.array([1.0, 0.0]), n_actions=2)
    model, _ = default_psr(env)
    with pytest.raises(DegenerateHistory):
        prediction_feature(model, History(((1, 0),)))


def test_self_consistency_detects_perturbation(small_model):
    worst = check_self_consistency(small_model)
    assert worst <= 1e-9
    M = list(np.copy(m) for m in small_model.M)
    M[1][0, 0, 0, 0] += 0.1
    perturbed = model_from_arrays(small_model.space, small_model.core_tests, small_model.psi0, M, small_model.phi)
    affected = abs(small_model.phi[2][0] * 0.1)
    assert check_self_consistency(perturbed) >= affected - 1e-12
    assert check_self_consistency(perturbed) > 0


def test_self_consistency_scalar_identity():
    assert check_self_consistency(scalar_identity_model()) == 0.0


def test_terminal_anchor_on_derived_models(small_model):
    assert terminal_anchor_violation(small_model) <= 1e-9


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "param,index,named",
    [("psi0", None, "psi0"), ("M", 0, "M at step 1"), ("M", 2, "M at step 3"),
     ("phi", 0, "phi at step 0"), ("phi", 3, "phi at step 3")],
)
def test_non_finite_parameters_are_rejected(small_model, param, index, named, bad):
    m = small_model
    params = {"psi0": np.copy(m.psi0), "M": [np.copy(ops) for ops in m.M], "phi": [np.copy(vec) for vec in m.phi]}
    target = params[param] if index is None else params[param][index]
    target.flat[0] = bad
    with pytest.raises(StructuralError, match=f"{named} has non-finite entries"):
        model_from_arrays(m.space, m.core_tests, params["psi0"], params["M"], params["phi"])


def test_violation_folds_keep_nan(small_model):
    """Finite parameters whose products overflow to +inf and -inf in one sum give a NaN
    self-consistency violation, which the fold reports and candidate validation rejects.
    The terminal rows are BLAS products (inf or NaN, as the library sums), never a pass."""
    from psrlab.estimation import CandidateSet

    m = small_model
    H = m.space.horizon
    last = np.zeros(m.M[H - 1].shape[:2] + (2, m.dims[H - 1]))
    last[:, :, 0, :], last[:, :, 1, :] = 1e200, -1e200
    big = model_from_arrays(m.space, m.core_tests, m.psi0, m.M[:-1] + (last,), m.phi[:-1] + (np.array([1e200, 1e200]),))
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(check_self_consistency(big))
        assert not terminal_anchor_violation(big) <= 1e-9
        with pytest.raises(StructuralError, match="candidate big violates self-consistency by nan"):
            CandidateSet(big.stack, ("big",))


def test_gamma_scalar_model_is_one():
    assert gamma(scalar_identity_model()) == pytest.approx(1.0, abs=1e-12)


def enumerate_future_policy_values(model, h, x):
    """Exhaustive max over deterministic continuation policies."""
    space = model.space
    depth = space.horizon - h
    # nodes: observation prefixes at each depth; assignment = action per node
    nodes = []
    for d in range(depth):
        for prefix in itertools.product(
            *( [range(space.n_obs), range(space.n_actions)] * d + [range(space.n_obs)] )
        ):
            nodes.append(prefix)
    best = -math.inf
    for assignment in itertools.product(range(space.n_actions), repeat=len(nodes)):
        actions = dict(zip(nodes, assignment))
        total = 0.0
        for obs_seq in itertools.product(range(space.n_obs), repeat=depth):
            prefix = ()
            vec = x
            for d, o in enumerate(obs_seq):
                prefix = prefix + (o,)
                a = actions[prefix]
                vec = model.M[h + d][o, a] @ vec
                prefix = prefix + (a,)
            total += abs(float(model.phi[space.horizon] @ vec))
        best = max(best, total)
    return best


@pytest.fixture(scope="module")
def small222_model():
    env = random_revealing(seed=11, n_states=2, n_obs=2, n_actions=2, horizon=2, alpha_threshold=0.05)
    return default_psr(env)[0]


def test_gamma_matches_policy_enumeration(small222_model):
    model = small222_model
    sup = sup_weighted_abs(model)
    brute = 0.0
    for h in range(model.space.horizon):
        for i in range(model.dims[h]):
            for sign in (1.0, -1.0):
                x = np.zeros(model.dims[h])
                x[i] = sign
                brute = max(brute, enumerate_future_policy_values(model, h, x))
    assert sup == pytest.approx(brute, abs=1e-10)
    assert gamma(model) == pytest.approx(1.0 / brute, abs=1e-10)


def _signed_envs():
    from psrlab.pomdp import near_tie
    from psrlab.verify import reference_env, small_builtin_envs

    return small_builtin_envs() + [("reference", reference_env()), ("near_tie", near_tie()),
                                   ("random_revealing(1,2,3,2,3)", random_revealing(1, 2, 3, 2, 3))]


@pytest.mark.parametrize("name,env", _signed_envs(), ids=[name for name, _ in _signed_envs()])
def test_positive_directions_give_the_signed_sup_bits(name, env):
    """Negating a direction negates every closing value exactly, so the sup over both signs has the same bits."""
    from psrlab.psr import _future_tree_max

    model = default_psr(env)[0]
    signed = 0.0
    for h in range(model.space.horizon):
        for i in range(model.dims[h]):
            for sign in (1.0, -1.0):
                x = np.zeros(model.dims[h])
                x[i] = sign
                signed = max(signed, _future_tree_max(model, h, x))
    assert sup_weighted_abs(model).hex() == signed.hex()


def test_gamma_doubled_row_doubles_branch(small222_model):
    model = small222_model
    M = [np.copy(m) for m in model.M]
    M[0][1, 0] *= 2.0  # break self-consistency deliberately (test only)
    doubled = model_from_arrays(model.space, model.core_tests, model.psi0, M, model.phi)

    def branch_sup(m, o, a, x):
        vec = m.M[0][o, a] @ x
        vals = np.abs(np.einsum("kij,j->ki", m.M[1].reshape(-1, *m.M[1].shape[2:]), vec) @ m.phi[2])
        return float(vals.reshape(m.space.n_obs, m.space.n_actions).max(axis=1).sum())

    x = np.zeros(model.dims[0])
    x[0] = 1.0
    assert branch_sup(doubled, 1, 0, x) == pytest.approx(2 * branch_sup(model, 1, 0, x), abs=1e-12)
    assert sup_weighted_abs(doubled) >= sup_weighted_abs(model) - 1e-12


def test_tv_distance_identical_models(small_model):
    policy = uniform_policy(small_model.space)
    assert tv_distance(small_model, small_model, policy) == 0.0


def test_tv_distance_range(reference_model):
    other_env = random_revealing(seed=9, n_states=2, n_obs=3, n_actions=2, horizon=2)
    other, _ = default_psr(other_env)
    for s in range(3):
        policy = random_tree_policy(reference_model.space, child_seed(s, "tvrange"))
        val = tv_distance(reference_model, other, policy)
        assert 0.0 <= val <= 2.0


def test_tv_distance_emission_rows():
    model_a, model_b = emission_pair_models([0.6, 0.4], [0.5, 0.5])
    policy = random_tree_policy(model_a.space, child_seed(0, "tv"))
    assert tv_distance(model_a, model_b, policy) == pytest.approx(0.2, abs=1e-12)


def test_hellinger_identical_and_disjoint():
    model_a, model_b = emission_pair_models([1.0, 0.0], [0.0, 1.0])
    policy = random_tree_policy(model_a.space, child_seed(0, "hell"))
    assert hellinger_sq(model_a, model_a, policy) == 0.0
    assert hellinger_sq(model_a, model_b, policy) == pytest.approx(1.0, abs=1e-12)


def test_hellinger_formula_evaluation():
    model_a, model_b = emission_pair_models([0.6, 0.4], [0.5, 0.5])
    policy = random_tree_policy(model_a.space, child_seed(0, "hell2"))
    expected = 0.5 * (
        (math.sqrt(0.6) - math.sqrt(0.5)) ** 2 + (math.sqrt(0.4) - math.sqrt(0.5)) ** 2
    )
    assert hellinger_sq(model_a, model_b, policy) == pytest.approx(expected, abs=1e-12)


def test_value_constant_leaves(reference_model):
    space = reference_model.space
    policy = random_tree_policy(space, child_seed(1, "value"))
    probs = reference_model.prob_table(space.horizon)
    assert policy_value_on_table(space, policy, probs * 1.0) == pytest.approx(1.0, abs=1e-9)
    assert policy_value_on_table(space, policy, probs * 0.0) == 0.0


def test_value_matches_monte_carlo(reference_env, reference_model):
    space = reference_env.space
    policy = uniform_policy(space)
    leaves = reference_model.prob_table(space.horizon) * reference_env.reward.leaf_table(space)
    exact = policy_value_on_table(space, policy, leaves)
    n = 100_000
    draws = np.array(
        [reference_env.reward_of(drawn_history(reference_env, policy, i)) for i in range(n)]
    )
    band = 3 * draws.std() / math.sqrt(n)
    assert abs(draws.mean() - exact) <= band


def test_total_mass_invariant(reference_model):
    for s in range(5):
        policy = random_tree_policy(reference_model.space, child_seed(s, "mass"))
        w = policy_weight_vector(policy, reference_model.space)
        mass = float(np.dot(w, reference_model.prob_table(reference_model.space.horizon)))
        assert mass == pytest.approx(1.0, abs=1e-9)


def test_conditional_update_identity(small_model):
    assert conditional_update_violation(small_model) <= 1e-9


def test_realized_probabilities_nonnegative(small_model):
    space = small_model.space
    for h in range(space.horizon + 1):
        assert small_model.prob_table(h).min() >= -1e-9
    for h in range(space.horizon):
        feats = small_model.feature_table(h)
        probs = small_model.prob_table(h)
        ok = probs > 1e-12
        assert feats[ok].min() >= -1e-9
        assert feats[ok].max() <= 1.0 + 1e-9


def test_model_serialization_bit_exact(small_model):
    data = small_model.to_dict()
    text = json.dumps(data)
    loaded = json.loads(text)
    rebuilt = model_from_arrays(small_model.space, small_model.core_tests, loaded["psi0"], loaded["M"], loaded["phi"])
    assert np.array_equal(rebuilt.psi0, small_model.psi0)
    for a, b in zip(rebuilt.M, small_model.M):
        assert np.array_equal(a, b)
    for a, b in zip(rebuilt.phi, small_model.phi):
        assert np.array_equal(a, b)
    assert json.dumps(rebuilt.to_dict()) == text


def test_core_test_set_exploration_union(small_model):
    core = small_model.core_tests
    space = small_model.space
    for h in range(space.horizon):
        nxt = core.action_seqs[h + 1] if h + 1 < space.horizon else ((),)
        expected = {(a,) + seq for a in range(space.n_actions) for seq in nxt}
        expected |= set(core.action_seqs[h])
        assert set(core.exploration_seqs[h]) == expected
        assert len(set(core.action_seqs[h])) == len(core.action_seqs[h])


def test_per_history_lookups_match_forward_products():
    """An explicit M[h][o, a] @ v recursion is the oracle for every history's row of the
    state, probability and feature tables (read through ``psi``, ``seq_prob`` and
    ``prediction_feature``) on every small builtin model."""
    from psrlab.psr import PSI_GUARD
    from psrlab.verify import small_builtin_envs

    for name, env in small_builtin_envs():
        model, _ = default_psr(env)
        frontier = [(History(), model.psi0)]
        for h in range(env.space.horizon + 1):
            for hist, v in frontier:
                assert np.allclose(psi(model, hist), v, rtol=0.0, atol=1e-12), name
                p = 1.0 if h == 0 else float(model.phi[h] @ v)
                assert seq_prob(model, hist) == pytest.approx(p, abs=1e-12), name
                p_feat = float(model.phi[h] @ v)
                if p_feat <= PSI_GUARD:
                    with pytest.raises(DegenerateHistory):
                        prediction_feature(model, hist)
                else:
                    assert np.allclose(prediction_feature(model, hist), v / p_feat, rtol=0.0, atol=1e-12), name
            if h < env.space.horizon:
                frontier = [
                    (hist.extend(o, a), model.M[h][o, a] @ v)
                    for hist, v in frontier
                    for o in range(env.space.n_obs)
                    for a in range(env.space.n_actions)
                ]


def test_per_history_lookups_validate_the_history(small_model):
    with pytest.raises(StructuralError):
        seq_prob(small_model, History(((2, 0),)))
    with pytest.raises(StructuralError):
        psi(small_model, History(((0, 0),) * 4))
    with pytest.raises(ValueError):
        psi(small_model, History(((0, 0),)))[0] = 1.0


def test_model_inputs_are_read_only_copies(reference_model):
    """psi0 and every M[h] and phi[h] are read-only views of the model's rows of its stack, so a write
    raises and neither they nor the cached probability and feature tables change; a model built
    from arrays reads copies of them, not the caller's arrays."""
    m = reference_model
    psi0, M, phi = m.psi0.copy(), tuple(ops.copy() for ops in m.M), tuple(vec.copy() for vec in m.phi)
    rebuilt = model_from_arrays(m.space, m.core_tests, psi0, M, phi)
    H = m.space.horizon
    for built in (m, rebuilt):
        tables = [built.prob_table(h).copy() for h in range(H + 1)] + [built.feature_table(h).copy() for h in range(H)]
        inputs = (built.psi0, *built.M, *built.phi)
        rows = (built.stack.psi0, *built.stack.M, *built.stack.phi)
        assert all(np.shares_memory(array, row) for array, row in zip(inputs, rows, strict=True))
        snapshot = [a.tobytes() for a in inputs]
        for array in inputs:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array *= 0.5
        assert [a.tobytes() for a in inputs] == snapshot
        after = [built.prob_table(h) for h in range(H + 1)] + [built.feature_table(h) for h in range(H)]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(tables, after))
    assert [a.tobytes() for a in (rebuilt.psi0, *rebuilt.M, *rebuilt.phi)] == [a.tobytes() for a in (psi0, *M, *phi)]
    M[1][:] = 0.0  # the caller's own arrays stay writable and are not what the model reads
    assert rebuilt.M[1].tobytes() == m.M[1].tobytes()


def test_models_stacks_and_candidate_sets_compare_by_identity():
    """Two models with equal arrays are two models: ``==`` and ``hash`` read identity, never the arrays."""
    from psrlab.estimation import CandidateSet
    from psrlab.pomdp import near_tie

    m1, m2 = default_psr(near_tie())[0], default_psr(near_tie())[0]
    assert all(a.tobytes() == b.tobytes() for a, b in zip((m1.psi0, *m1.M, *m1.phi), (m2.psi0, *m2.M, *m2.phi)))
    sets = [CandidateSet(m.stack, ("true",)) for m in (m1, m2)]
    for a, b in ((m1, m2), (m1.stack, m2.stack), tuple(sets)):
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)


@pytest.mark.parametrize("depth", [0, 1, 3])
def test_a_taken_stack_carries_the_cached_depths(depth):
    """``take`` gathers its members' rows of every depth the stack has cached: byte-equal to the
    depths the taken stack would compute itself, read-only, sharing no memory with the parent,
    and the probabilities a view of the states where the parent's are."""
    from psrlab.estimation import make_candidates

    env = random_revealing(seed=1, n_states=2, n_obs=3, n_actions=2, horizon=3)
    stack = make_candidates(env, "dithered", seed=4, n=5, scale=0.05).stack
    stack.tables(depth)
    ids = [4, 0, 2, 2]
    taken = stack.take(ids)
    assert sorted(taken._depth_tables) == list(range(depth + 1))
    alone = PsrStack.concatenate([taken])
    parent_arrays = [array for pair in stack._depth_tables.values() for array in pair]
    for h in range(depth + 1):
        (states, probs), (want_states, want_probs) = taken._depth_tables[h], alone.tables(h)
        for got, want in ((states, want_states), (probs, want_probs)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), h
            assert not got.flags.writeable and not any(np.shares_memory(got, p) for p in parent_arrays), h
        assert np.shares_memory(probs, states) == np.shares_memory(want_probs, want_states) == (h > 0 and h == 3)
    assert not stack.take([])._depth_tables[depth][0].size


def test_member_tables_are_rows_of_the_stack_tables():
    """A member's states and probabilities are its rows of the stack's tables, with their memory;
    the first member to ask for a depth builds it for the whole stack."""
    from psrlab.estimation import make_candidates

    env = random_revealing(seed=1, n_states=2, n_obs=3, n_actions=2, horizon=3)
    cands = make_candidates(env, "dithered", seed=4, n=5, scale=0.05)
    member, stack, H = cands.models[1], cands.stack, env.space.horizon
    assert (member.stack, member.index) == (stack, 1) and not stack._depth_tables
    member.prob_table(H)
    assert sorted(stack._depth_tables) == list(range(H + 1)) and len(stack.tables(H)[1]) == len(stack) == 6
    assert member.prob_table(0).tolist() == [1.0]
    for h in range(1, H + 1):
        assert np.shares_memory(member.prob_table(h), stack.tables(h)[1][1])
        assert np.shares_memory(member.state_table(h), stack.tables(h)[0][1])
        assert member.prob_table(h).tobytes() == stack.tables(h)[1][1].tobytes()
        assert stack.tables(h) is stack.tables(h) and stack.prob_table(h) is stack.tables(h)[1]


def test_self_consistency_of_a_member_measures_that_member_alone():
    """``check_self_consistency`` of a member reads only its own parameters and has the bits of the
    same model built alone, whatever the other members violate."""
    from psrlab.estimation import make_candidates

    env = random_revealing(seed=1, n_states=2, n_obs=3, n_actions=2, horizon=3)
    stack = make_candidates(env, "dithered", seed=4, n=5, scale=0.05).stack
    phi0 = np.array(stack.phi[0])
    phi0[2] *= 1.0 + 1e-3  # member 2 breaks the recursion at step 1
    broken = PsrStack(stack.space, stack.core_tests, stack.psi0, stack.M, (phi0,) + stack.phi[1:])
    worst = broken.self_consistency()
    assert worst[2] > 1e-6 >= worst.max(initial=0.0, where=np.arange(len(worst)) != 2)
    for c, member in enumerate(broken.members()):
        alone = model_from_arrays(member.space, member.core_tests, member.psi0, member.M, member.phi)
        assert check_self_consistency(member).hex() == check_self_consistency(alone).hex(), c
        assert check_self_consistency(member).hex() == float(worst[c]).hex(), c


def test_a_model_is_a_member_of_its_stack(small_model):
    """``PsrModel(stack, index)`` reads its space, core tests and parameter rows from the stack; the
    arrays are not constructor arguments, and a member outside the stack, or an index that is not an
    integer, is refused."""
    stack = PsrStack.concatenate((small_model.stack, small_model.stack))
    members = stack.members()
    assert [(m.stack, m.index) for m in members] == [(stack, 0), (stack, 1)]
    for c, model in enumerate(members):
        assert model.space is stack.space and model.core_tests is stack.core_tests
        for array, rows in zip((model.psi0, *model.M, *model.phi), (stack.psi0, *stack.M, *stack.phi), strict=True):
            assert np.shares_memory(array, rows[c]) and array.tobytes() == rows[c].tobytes()
    for index in (-1, 2):
        with pytest.raises(StructuralError, match=f"^member {index} outside a stack of 2$"):
            PsrModel(stack, index)
    for index in (True, 0.0, np.bool_(False), np.float64(1.0)):  # True would index as 1 and keep the member axis
        with pytest.raises(StructuralError, match=f"^member index must be an integer, got {re.escape(repr(index))}$"):
            PsrModel(stack, index)
    assert PsrModel(stack, np.int64(1)).psi0.tobytes() == members[1].psi0.tobytes()
    with pytest.raises(TypeError, match="psi0"):
        PsrModel(stack, 0, psi0=small_model.psi0)


def test_every_table_accessor_refuses_a_depth_outside_the_horizon():
    """A depth below 0 or above H is a ``StructuralError`` from every table accessor, never a
    recursion or index error, and caches nothing."""
    from psrlab.pomdp import near_tie

    model = default_psr(near_tie())[0]
    H = model.space.horizon
    accessors = {
        "stack.tables": model.stack.tables,
        "stack.prob_table": model.stack.prob_table,
        "state_table": model.state_table,
        "prob_table": model.prob_table,
        "feature_table": model.feature_table,
        "degenerate_mask": model.degenerate_mask,
        "degenerate_prefixes": model.degenerate_prefixes,
    }
    for name, accessor in accessors.items():
        for h in (-1, -2, H + 1, H + 3):
            with pytest.raises(StructuralError, match=rf"^step {h} outside \[0, {H}\]$"):
                accessor(h)
    assert set(model.stack._depth_tables) <= set(range(H + 1)) and not model._feature_cache


def test_distances_refuse_models_on_two_spaces(small_model, reference_model):
    policy = uniform_policy(small_model.space)
    for distance in (tv_distance, hellinger_sq):
        with pytest.raises(StructuralError, match="^models live on different spaces: ObsActSpace.*horizon=3.* and .*horizon=2"):
            distance(small_model, reference_model, policy)
