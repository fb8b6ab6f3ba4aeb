import itertools
import json
import re

import numpy as np
import pytest

from check_oracles import oracle_default_psr, oracle_g_matrices, oracle_pomdp_to_psr
from conftest import assert_same_model, make_single_state_env
from policy_oracles import drawn_history, seed_uniforms
from pomdp_oracles import enumerate_futures, future_steps, oracle_reward_of, seq_prob
from psrlab.errors import RejectionBudgetExhausted, SingularCoreTests, StructuralError
from psrlab.estimation import _perturbed_rows
from psrlab.policies import random_tree_policy, uniform_policy
from psrlab.pomdp import (
    RewardTable,
    TabularPomdp,
    _walk_tests,
    convert_family,
    decodability_alpha,
    default_psr,
    dynamics_matrix,
    g_matrices,
    near_tie,
    pomdp_from_dict,
    pomdp_to_psr,
    random_mdp,
    random_revealing,
    tiger,
)
from psrlab.psr import check_self_consistency, psr_rank
from psrlab.seeding import child_seed, first_uniforms
from psrlab.spaces import History, ObsActSpace, enumerate_histories
from psrlab.verify import small_builtin_envs

CONVERSION_ENVS = small_builtin_envs() + [("near_tie", near_tie())]
FAMILY_ENVS = [
    ("random_revealing(1,2,3,2,6)", random_revealing(1, 2, 3, 2, 6)),
    ("tiger(3)", tiger(3)),
    ("H1", random_revealing(1, 2, 3, 2, 1)),  # no transitions
    ("S1", make_single_state_env(horizon=3, n_obs=2, n_actions=2)),
]


def brute_force_prob(env, history):
    """Sum over hidden state sequences of emission/transition products."""
    h = len(history)
    if h == 0:
        return 1.0
    total = 0.0
    for seq in itertools.product(range(env.n_states), repeat=h):
        if seq[0] != env.initial_state:
            continue
        p = 1.0
        for j, (o, a) in enumerate(history.steps, start=1):
            p *= env.emission[j - 1, seq[j - 1], o]
            if j < h:
                p *= env.transition[j - 1, a, seq[j - 1], seq[j]]
        total += p
    return total


def test_row_stochasticity_enforced():
    space = ObsActSpace(2, 2, 2)
    bad_emission = np.stack([np.array([[0.6, 0.5], [0.5, 0.5]])] * 2)
    with pytest.raises(StructuralError):
        TabularPomdp(
            2,
            space,
            np.full((1, 2, 2, 2), 0.5),
            bad_emission,
            0,
            RewardTable(np.zeros((2, 2, 2))),
        )


def test_reward_table_scale_guard():
    with pytest.raises(StructuralError):
        RewardTable(np.full((2, 2, 2), 0.8))
    RewardTable(np.full((2, 2, 2), 0.5))


def test_reward_table_rejects_nan_and_wrong_rank():
    with pytest.raises(StructuralError):
        RewardTable(np.full((2, 2, 2), np.nan))
    with pytest.raises(StructuralError):
        RewardTable(np.zeros((2, 2)))
    with pytest.raises(StructuralError):
        RewardTable(np.zeros((0, 2, 2)))


@pytest.mark.parametrize("n_states,initial_state", [(True, 0), (1.0, 0), (1, "0"), (1, False)])
def test_state_count_and_initial_state_must_be_integers(n_states, initial_state):
    env = make_single_state_env()
    with pytest.raises(StructuralError, match="must be an integer"):
        TabularPomdp(n_states, env.space, env.transition, env.emission, initial_state, env.reward)


def test_exact_traj_prob_empty_history(small_env):
    assert small_env.exact_traj_prob(History()) == 1.0


def test_exact_traj_prob_single_state_is_emission_product():
    env = make_single_state_env(horizon=3, emission_row=np.array([0.7, 0.3]))
    hist = History(((0, 1), (1, 0), (0, 0)))
    assert env.exact_traj_prob(hist) == pytest.approx(0.7 * 0.3 * 0.7, abs=1e-15)


def test_exact_traj_prob_matches_brute_force(small_env):
    worst = 0.0
    for h in range(small_env.space.horizon + 1):
        for hist in enumerate_histories(small_env.space, h):
            worst = max(worst, abs(small_env.exact_traj_prob(hist) - brute_force_prob(small_env, hist)))
    assert worst <= 1e-12


def test_frozen_seed_documented_value(small_env):
    # random_revealing(seed=7, S=2, O=2, A=2, H=3), history (o0,a1),(o1,a0).
    hist = History(((0, 1), (1, 0)))
    assert small_env.exact_traj_prob(hist) == pytest.approx(0.1821476242042046, abs=1e-12)


def test_sample_episode_deterministic_env_unique_trajectory():
    space = ObsActSpace(2, 2, 2)
    emission = np.stack([np.array([[1.0, 0.0], [0.0, 1.0]])] * 2)
    transition = np.zeros((1, 2, 2, 2))
    transition[:, :, :, 1] = 1.0  # always jump to state 1
    env = TabularPomdp(2, space, transition, emission, 0, RewardTable(np.zeros((2, 2, 2))))
    policy = random_tree_policy(space, child_seed(0, "tree"))
    trajs = {drawn_history(env, policy, seed).steps for seed in range(10)}
    assert len(trajs) == 1
    (steps,) = trajs
    assert steps[0][0] == 0 and steps[1][0] == 1


def test_sample_episode_seed_determinism(reference_env):
    policy = uniform_policy(reference_env.space)
    a = reference_env.sample_episode(policy, seed_uniforms(reference_env.space, 123))
    b = reference_env.sample_episode(policy, seed_uniforms(reference_env.space, 123))
    assert a == b


def test_sample_episode_frequencies_match_exact(reference_env):
    policy = uniform_policy(reference_env.space)
    n = 100_000
    space = reference_env.space
    counts = np.zeros(space.n_trajectories)
    for uniforms in first_uniforms(range(n), 3 * space.horizon - 1).tolist():
        counts[reference_env.sample_episode(policy, uniforms)[0][-1]] += 1
    from psrlab.policies import policy_weight_vector

    exact = policy_weight_vector(policy, space) * np.array(
        [reference_env.exact_traj_prob(h) for h in enumerate_histories(space, space.horizon)]
    )
    sd = np.sqrt(exact * (1 - exact) / n)
    assert np.all(np.abs(counts / n - exact) <= 3 * sd + 1e-12)


def test_dynamics_matrix_shapes_and_entries(small_env):
    D1 = dynamics_matrix(small_env, 1)
    space = small_env.space
    assert D1.shape == (4, 16)
    hists = enumerate_histories(space, 1)
    futs = enumerate_futures(space, 1)
    for i in (0, 3):
        for j in (0, 7, 15):
            spliced = History(hists[i].steps + future_steps(futs[j]))
            assert D1[i, j] == pytest.approx(small_env.exact_traj_prob(spliced), abs=1e-12)
    D0 = dynamics_matrix(small_env, 0)
    assert D0.shape == (1, 64)


def test_psr_rank_edge_cases():
    assert psr_rank(np.zeros((3, 4))) == 0
    assert psr_rank(np.eye(3)) == 3
    assert psr_rank(np.zeros((0, 2))) == 0
    assert psr_rank(np.diag([1.0, 2e-8, 1e-9])) == 2  # RANK_TOL = 1e-8 of the largest


def test_dynamics_rank_bounded_by_states(small_env):
    for h in range(small_env.space.horizon):
        assert psr_rank(dynamics_matrix(small_env, h)) <= small_env.n_states


def test_g_matrices_single_state_alpha():
    env = make_single_state_env(horizon=2, emission_row=np.array([0.8, 0.2]))
    g = g_matrices(env, 1)
    alpha = decodability_alpha(g)
    norms = [np.linalg.norm(G[:, 0]) for G in g.matrices]
    assert alpha == pytest.approx(min(norms), abs=1e-12)
    assert alpha > 0


def test_g_matrices_indistinguishable_states_alpha_zero():
    space = ObsActSpace(2, 2, 2)
    emission = np.stack([np.array([[0.6, 0.4], [0.6, 0.4]])] * 2)
    transition = np.full((1, 2, 2, 2), 0.5)
    env = TabularPomdp(2, space, transition, emission, 0, RewardTable(np.zeros((2, 2, 2))))
    for m in (1, 2):
        assert decodability_alpha(g_matrices(env, m)) == pytest.approx(0.0, abs=1e-12)


def test_one_step_alpha_equals_emission_sigma(reference_env):
    g = g_matrices(reference_env, 1)
    sigmas = [np.linalg.svd(reference_env.emission[h], compute_uv=False)[-1] for h in range(2)]
    assert decodability_alpha(g) == pytest.approx(min(sigmas), abs=1e-12)


def test_pomdp_to_psr_single_state_exact():
    env = make_single_state_env(horizon=3, emission_row=np.array([0.25, 0.75]))
    model, g = default_psr(env)
    assert model.dims[0] == 2  # one window test per observation
    for h in range(4):
        for hist in enumerate_histories(env.space, h):
            assert seq_prob(model, hist) == pytest.approx(env.exact_traj_prob(hist), abs=1e-12)


def test_pomdp_to_psr_seeded_equivalence(small_env, small_model):
    for hist in enumerate_histories(small_env.space, small_env.space.horizon):
        assert seq_prob(small_model, hist) == pytest.approx(
            small_env.exact_traj_prob(hist), abs=1e-8
        )
    assert check_self_consistency(small_model) <= 1e-9


def test_pomdp_to_psr_mdp_rank_states():
    env = random_mdp(seed=3, n_states=3, n_actions=2, horizon=3)
    assert np.allclose(env.emission[0], np.eye(3))
    model, _ = default_psr(env)
    for h in range(env.space.horizon):
        assert psr_rank(dynamics_matrix(env, h)) <= env.n_states
    for hist in enumerate_histories(env.space, env.space.horizon):
        assert seq_prob(model, hist) == pytest.approx(env.exact_traj_prob(hist), abs=1e-8)


def test_pomdp_to_psr_rejects_singular_tests():
    space = ObsActSpace(2, 2, 2)
    emission = np.stack([np.array([[0.6, 0.4], [0.6, 0.4]])] * 2)
    transition = np.full((1, 2, 2, 2), 0.5)
    env = TabularPomdp(2, space, transition, emission, 0, RewardTable(np.zeros((2, 2, 2))))
    with pytest.raises(SingularCoreTests):
        pomdp_to_psr(env, g=g_matrices(env, 1))


def test_random_revealing_contract():
    env = random_revealing(seed=1, n_states=2, n_obs=3, n_actions=2, horizon=3)
    assert decodability_alpha(g_matrices(env, 1)) >= 0.1
    with pytest.raises(StructuralError):
        random_revealing(seed=1, n_states=3, n_obs=2, n_actions=2, horizon=2)
    with pytest.raises(RejectionBudgetExhausted):
        random_revealing(seed=1, n_states=3, n_obs=3, n_actions=2, horizon=2,
                         alpha_threshold=0.99, max_draws=5)


def test_tiger_structure():
    env = tiger(2)
    assert env.n_states == 2
    assert env.space.n_obs == 2
    assert env.space.n_actions == 3
    for hist in enumerate_histories(env.space, 2):
        assert 0.0 <= env.reward_of(hist) <= 1.0


def test_near_tie_margins():
    env = near_tie()
    from psrlab.planner import leaf_table, plan_on_table

    model, _ = default_psr(env)
    leaves = model.prob_table(2) * leaf_table(env.space, env.reward_of)
    policy, value = plan_on_table(env.space, leaves)
    # the patient action is optimal at both first-step observation nodes
    assert policy.actions_by_step[0].tolist() == [0, 0]
    assert value == pytest.approx(0.6708, abs=1e-4)


def test_pomdp_serialization_round_trip(small_env):
    data = small_env.to_dict()
    text = json.dumps(data)
    rebuilt = pomdp_from_dict(json.loads(text))
    assert np.array_equal(rebuilt.transition, small_env.transition)
    assert np.array_equal(rebuilt.emission, small_env.emission)
    assert json.dumps(rebuilt.to_dict()) == text


def test_reward_table_leaf_table_matches_per_leaf_rewards():
    """``reward_of`` reads the leaf table bit for bit; the table's left-to-right
    sums equal the exactly rounded oracle at H = 2 and stay within 1e-15 at H = 6."""
    from psrlab.planner import leaf_table

    for env, tol in ((near_tie(), 0.0), (tiger(2), 0.0), (random_mdp(seed=3, n_states=2, n_actions=2, horizon=2), 0.0),
                     (random_revealing(seed=1, n_states=2, n_obs=3, n_actions=2, horizon=6), 1e-15)):
        fast = env.reward.leaf_table(env.space)
        assert fast is env.reward.leaf_table(env.space) and not fast.flags.writeable
        assert leaf_table(env.space, env.reward_of).tobytes() == fast.tobytes()
        oracle = leaf_table(env.space, lambda t: oracle_reward_of(env.reward, t))
        if tol == 0.0:
            assert np.array_equal(fast, oracle)
        else:
            assert np.abs(fast - oracle).max() <= tol


@pytest.mark.parametrize(
    "steps", [((0, 0),), ((0, 0),) * 3, ((0, 0), (2, 0)), ((0, 0), (0, 3)), ((0, 0), (0, True)), ((0, 0), (1.0, 0))],
    ids=["short", "long", "obs-range", "action-range", "bool-step", "float-step"],
)
def test_reward_of_needs_a_full_in_range_trajectory(steps):
    env = tiger(2)
    with pytest.raises(StructuralError):
        env.reward_of(History(steps))


def test_reward_table_leaf_table_rejects_another_space(small_env):
    with pytest.raises(StructuralError):
        small_env.reward.leaf_table(ObsActSpace(2, 2, 2))


def test_environment_inputs_are_read_only_copies():
    """Every array a cached table derives from is a read-only copy of what the caller passed,
    so a write raises and neither the inputs nor the cached tables change."""
    env = tiger(2)
    transition, emission, table = env.transition.copy(), env.emission.copy(), env.reward.table.copy()
    rebuilt = TabularPomdp(env.n_states, env.space, transition, emission, env.initial_state, RewardTable(table))
    for built in (env, rebuilt):
        assert built.emission[0, 0, 0] == 0.85
        tables = [built.prob_table(h).copy() for h in range(3)] + [built.reward.leaf_table(built.space).copy()]
        inputs = (built.transition, built.emission, built.reward.table)
        snapshot = [a.tobytes() for a in inputs]
        for array in inputs:
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[...] = 0.5
        assert [a.tobytes() for a in inputs] == snapshot
        after = [built.prob_table(h) for h in range(3)] + [built.reward.leaf_table(built.space)]
        assert all(a.tobytes() == b.tobytes() for a, b in zip(tables, after))
    assert [rebuilt.transition.tobytes(), rebuilt.emission.tobytes(), rebuilt.reward.table.tobytes()] == [
        transition.tobytes(), emission.tobytes(), table.tobytes()
    ]
    emission[:] = 0.5  # the caller's own arrays stay writable and are not what the environment reads
    transition[:] = 0.5
    table[:] = 0.0
    assert rebuilt.emission[0, 0, 0] == 0.85 and rebuilt.prob_table(1)[0] == env.prob_table(1)[0]
    assert rebuilt.reward.table.max() > 0.0 and rebuilt.transition.tobytes() == env.transition.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("name,env", CONVERSION_ENVS, ids=[name for name, _ in CONVERSION_ENVS])
def test_conversion_matches_the_per_environment_oracle(name, env, m):
    """``g_matrices`` and ``pomdp_to_psr``, one-member calls of the family pass, keep the per-environment bits."""
    g, want_g = g_matrices(env, m), oracle_g_matrices(env, m)
    assert g.tests == want_g.tests
    for G, W in zip(g.matrices, want_g.matrices, strict=True):
        assert G.shape == W.shape and G.tobytes() == W.tobytes()
    try:
        want = oracle_pomdp_to_psr(env, want_g)
    except SingularCoreTests as exc:  # near_tie at m = 1
        with pytest.raises(SingularCoreTests, match=f"^{re.escape(str(exc))}$"):
            pomdp_to_psr(env, g)
        return
    assert_same_model(pomdp_to_psr(env, g), want, name)


@pytest.mark.parametrize("n_members", [1, 3, 7])
@pytest.mark.parametrize("name,env", FAMILY_ENVS, ids=[name for name, _ in FAMILY_ENVS])
def test_family_conversion_is_each_members_own(name, env, n_members):
    """Stacked test matrices and conversions equal each member's own, bit for bit, errors included;
    every member shares the truth's core-test object."""
    true_model, g = default_psr(env)
    m = g.m
    rng = np.random.default_rng(n_members)
    tables = []
    for _ in range(n_members):
        transition = _perturbed_rows(env.transition, 0.3, rng) if env.transition.size else env.transition
        tables.append((transition, _perturbed_rows(env.emission, 0.3, rng)))
    if n_members > 1:  # member 1: every state behaves as state 0, so no test tells states apart
        tables[1] = tuple(table[..., :1, :].repeat(env.n_states, axis=-2) for table in tables[1])
    transitions, emissions = (np.stack(arrays) for arrays in zip(*tables))
    stack, errors = convert_family(env, transitions, emissions, true_model.core_tests)
    assert len(stack) == len(errors) == n_members and stack.core_tests is true_model.core_tests
    for c, (transition, emission) in enumerate(tables):
        member = TabularPomdp(env.n_states, env.space, transition, emission, env.initial_state, env.reward)
        want_g = oracle_g_matrices(member, m)
        for h, (tests, want_G) in enumerate(zip(want_g.tests, want_g.matrices, strict=True), start=1):
            G = _walk_tests(transitions, emissions, tests, h)[c]
            assert G.tobytes() == want_G.tobytes() and G.tobytes() == member.test_probs(tests, h).tobytes()
        try:
            want = oracle_pomdp_to_psr(member, want_g)
        except SingularCoreTests as exc:
            assert isinstance(errors[c], SingularCoreTests) and str(errors[c]) == str(exc), (name, c)
            continue
        assert errors[c] is None, (name, c)
        assert_same_model(stack.take([c]).members()[0], want, (name, c))
    if n_members > 1 and env.n_states > 1:
        assert isinstance(errors[1], SingularCoreTests)


def test_family_refuses_tables_as_one_environment_does():
    """The first member with a fault raises, with the error its own environment raises first."""
    env = tiger(3)
    core = default_psr(env)[0].core_tests
    transitions, emissions = np.stack([env.transition] * 4), np.stack([env.emission] * 4)
    emissions[1, 2, 0] = [np.nan, 1.0]
    transitions[1, 0, 0, 0] = [1.5, -0.5]  # member 1 has both faults; the transition is checked first
    transitions[2, 0, 0, 0] = [0.7, 0.7]
    for stack, message in [
        ((transitions, emissions), "transition has negative or NaN entries"),
        ((transitions[2:], emissions[2:]), "transition rows must sum to 1"),
        ((np.stack([env.transition] * 2), emissions[:2]), "emission has negative or NaN entries"),
    ]:
        with pytest.raises(StructuralError, match=f"^{message}$"):
            convert_family(env, *stack, core)
    with pytest.raises(StructuralError, match="^transition has negative or NaN entries$"):
        TabularPomdp(2, env.space, transitions[1], emissions[1], 0, env.reward)
    with pytest.raises(StructuralError, match=r"^transition shape \(1, 3, 2, 2\) != \(2, 3, 2, 2\)$"):
        convert_family(env, transitions[:, :1], emissions, core)
    other = default_psr(tiger(2))[0].core_tests
    with pytest.raises(StructuralError, match="^core tests on .* for an environment on "):
        convert_family(env, np.stack([env.transition]), np.stack([env.emission]), other)


@pytest.mark.parametrize(
    "make_env,n_svds",
    [(lambda: random_revealing(1, 2, 3, 2, 6), 6), (near_tie, 4), (lambda: tiger(3), 3)],
    ids=["online-large", "near_tie", "tiger(3)"],
)
def test_default_psr_takes_each_test_matrix_singular_values_once(monkeypatch, make_env, n_svds):
    """Over an environment's lifetime, from its construction (random_revealing's acceptance check
    reads window 1) through two conversions, the decodability value and the conversion's condition
    check read one SVD per test matrix (near_tie's window 1 is not decodable, so its two matrices
    are tried too); the second call returns the first call's objects, with the oracle's bits."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(args[0].shape) or svd(*args, **kwargs))
    env = make_env()
    model, g = default_psr(env)
    again = default_psr(env)
    monkeypatch.undo()
    assert len(calls) == n_svds
    assert again[0] is model and again[1] is g and g_matrices(env, g.m) is g
    want, want_g = oracle_default_psr(env)
    assert g.m == want_g.m
    assert_same_model(model, want)


def test_environments_rewards_and_test_matrices_compare_by_identity():
    """Two environments with equal tables are two environments, as are their rewards and window
    matrices, which each own a cache: ``==`` and ``hash`` read identity, never the arrays."""
    e1, e2 = near_tie(), near_tie()
    g1, g2 = g_matrices(e1, 2), g_matrices(e2, 2)
    assert e1.transition.tobytes() == e2.transition.tobytes() and g1.matrices[0].tobytes() == g2.matrices[0].tobytes()
    for a, b in ((e1, e2), (e1.reward, e2.reward), (g1, g2)):
        assert a == a and a != b and not a == b
        assert len({a, b, a}) == 2 and hash(a) == hash(a)


def test_an_undecodable_environment_raises_on_every_conversion(monkeypatch):
    """A failed conversion is not cached: each call raises again, reading the cached windows' singular values."""
    space = ObsActSpace(2, 2, 2)
    emission = np.stack([np.array([[0.6, 0.4], [0.6, 0.4]])] * 2)
    env = TabularPomdp(2, space, np.full((1, 2, 2, 2), 0.5), emission, 0, RewardTable(np.zeros((2, 2, 2))))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(args[0].shape) or svd(*args, **kwargs))
    for _ in range(3):
        with pytest.raises(SingularCoreTests, match="^no decodable window up to m=H"):
            default_psr(env)
    monkeypatch.undo()
    assert len(calls) == 4 and env._psr is None  # windows 1 and 2, two state steps each
    with pytest.raises(SingularCoreTests, match="^no decodable window up to m=H"):
        oracle_default_psr(env)
