import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from check_oracles import (
    decoded_trajectories,
    oracle_candidate_fault,
    oracle_check_self_consistency,
    oracle_conditional_tv_diagnostic,
    oracle_g_matrices,
    oracle_grid_tables,
    oracle_make_candidates,
    oracle_model_fault,
    oracle_pomdp_to_psr,
    oracle_simplex_lattice,
    oracle_stability_and_likelihood,
    theta_min_feasible,
)
from conftest import assert_same_columns, assert_same_model, make_single_state_env, model_from_arrays
from policy_oracles import add_drawn, add_history, exploration_policy, oracle_policy_weight, seed_uniforms
from pomdp_oracles import seq_prob
from psrlab import estimation
from psrlab.cli import build_env
from psrlab.errors import DegenerateHistory, EmptyFeasibleSet, PsrLabError, SingularCoreTests, StructuralError
from psrlab.estimation import (
    MAX_ATTEMPTS_PER_CANDIDATE,
    CandidateSet,
    DatasetFamily,
    _simplex_lattice,
    conditional_tv_diagnostic,
    constrained_mle,
    log_likelihood,
    make_candidates,
)
from psrlab.policies import UniformActionSeqPolicy, uniform_policy
from psrlab.pomdp import TabularPomdp, default_psr, near_tie, random_mdp, random_revealing
from psrlab.psr import PsrStack, check_self_consistency
from psrlab.spaces import History
from psrlab.verify import reference_env

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _config_family(name):
    config = json.loads((CONFIGS / name).read_text())
    return build_env(config["env"]), config["candidates"]


FAMILIES = {
    **{name: _config_family(name) for name in ("online_reference.json", "online_decay.json", "offline_sweep.json")},
    "online-large": (random_revealing(1, 2, 3, 2, 6), {"mode": "dithered", "seed": 5, "n": 40, "scale": 0.05}),
    "verify-mle-events": (reference_env(), {"mode": "dithered", "seed": 77, "n": 8, "scale": 0.08}),
    "verify-ucb-validity": (reference_env(), {"mode": "dithered", "seed": 42, "n": 10, "scale": 0.03}),
    # Rows this far from the truth make some members singular; they are skipped at the same attempts.
    "singular-reference": (random_revealing(1, 2, 3, 2, 2), {"mode": "dithered", "seed": 3, "n": 7, "scale": 30.0}),
    "singular-near_tie": (near_tie(), {"mode": "dithered", "seed": 3, "n": 7, "scale": 30.0}),
    # Grid members are checked against the recursive enumeration below; the grid at 0.25 is over the cap.
    "grid-random_mdp-0.25": (random_mdp(3, 2, 2, 2), {"mode": "grid", "eps_grid": 0.25}),
    # Horizon 1: the terminal indicators are the only operators.
    "horizon-1": (random_revealing(2, 2, 3, 2, 1), {"mode": "dithered", "seed": 1, "n": 5, "scale": 0.1}),
}


@pytest.fixture()
def small_dataset(reference_env):
    dataset = DatasetFamily(reference_env.space)
    pol = uniform_policy(reference_env.space)
    for i in range(8):
        add_drawn(dataset, reference_env, pol, 500 + i, i % 2)
    return dataset


def test_log_likelihood_empty_dataset(reference_model, reference_env):
    dataset = DatasetFamily(reference_env.space)
    assert log_likelihood(reference_model, dataset) == 0.0


def test_log_likelihood_single_entry(reference_env, reference_model):
    dataset = DatasetFamily(reference_env.space)
    pol = uniform_policy(reference_env.space)
    traj = add_drawn(dataset, reference_env, pol, 7, 0)
    expected = math.log(seq_prob(reference_model, traj) * 0.25)
    assert log_likelihood(reference_model, dataset) == pytest.approx(expected, abs=1e-12)


def test_theta_min_monotone_in_p_min(reference_env, reference_model, small_dataset):
    cands = make_candidates(reference_env, "dithered", seed=3, n=10, scale=0.1)
    loose = [i for i in range(len(cands)) if theta_min_feasible(cands.models[i], small_dataset, 1e-12)]
    tight = [i for i in range(len(cands)) if theta_min_feasible(cands.models[i], small_dataset, 1e-3)]
    assert set(tight) <= set(loose)


def test_constrained_mle_singleton_true(reference_env, reference_model, small_dataset):
    cands = make_candidates(reference_env, "include_true")
    result = constrained_mle(cands, small_dataset, p_min=1e-10, beta=5.0)
    assert result.selected_label == "true"
    assert result.feasible_ids == (0,)


def test_constrained_mle_excludes_zero_support():
    env = make_single_state_env(horizon=1, n_obs=2, n_actions=1, emission_row=np.array([0.5, 0.5]))
    cands = make_candidates(env, "grid", eps_grid=0.5, include_true=True)
    # grid contains the deterministic rows (1,0) and (0,1)
    dataset = DatasetFamily(env.space)
    pol = uniform_policy(env.space)
    add_history(dataset, pol, History(((1, 0),)), 0)
    result = constrained_mle(cands, dataset, p_min=1e-12, beta=100.0)
    labels = [cands.labels[i] for i in result.feasible_ids]
    zero_support = [
        i for i, m in enumerate(cands.models) if seq_prob(m, History(((1, 0),))) <= 0.0
    ]
    assert zero_support, "grid should contain a support-violating candidate"
    assert not set(zero_support) & set(result.feasible_ids)


def test_constrained_mle_permutation_invariance(reference_env, small_dataset):
    cands = make_candidates(reference_env, "dithered", seed=3, n=6, scale=0.05)
    result = constrained_mle(cands, small_dataset, p_min=1e-10, beta=2.0)
    order = list(reversed(range(len(cands))))
    permuted = CandidateSet(cands.stack.take(order), tuple(cands.labels[i] for i in order))
    result2 = constrained_mle(permuted, small_dataset, p_min=1e-10, beta=2.0)
    assert cands.labels[result.selected_id] == permuted.labels[result2.selected_id]
    assert sorted(cands.labels[i] for i in result.feasible_ids) == sorted(
        permuted.labels[i] for i in result2.feasible_ids
    )


def test_constrained_mle_empty_feasible_set(reference_env, small_dataset):
    cands = make_candidates(reference_env, "include_true")
    with pytest.raises(EmptyFeasibleSet):
        constrained_mle(cands, small_dataset, p_min=0.9, beta=5.0)


def test_conditional_tv_identical_models(reference_model, small_dataset):
    policies = [uniform_policy(reference_model.space)] * reference_model.space.horizon
    got = conditional_tv_diagnostic(reference_model.stack, reference_model, small_dataset, policies)
    assert got.tolist() == [0.0]


def test_conditional_tv_disjoint_support_squared():
    env_a = make_single_state_env(horizon=1, n_obs=2, n_actions=1, emission_row=np.array([1.0, 0.0]))
    env_b = make_single_state_env(horizon=1, n_obs=2, n_actions=1, emission_row=np.array([0.0, 1.0]))
    model_a, _ = default_psr(env_a)
    model_b, _ = default_psr(env_b)
    dataset = DatasetFamily(env_a.space)
    pol = uniform_policy(env_a.space)
    add_history(dataset, pol, History(((0, 0),)), 0)
    got = conditional_tv_diagnostic(PsrStack.concatenate((model_a.stack, model_b.stack)), model_b, dataset, [pol])
    assert got.tolist() == [pytest.approx(4.0, abs=1e-12), 0.0]


def test_conditional_tv_degenerate_prefix_raises(reference_env, reference_model):
    env_det = make_single_state_env(horizon=2, n_obs=3, n_actions=2, emission_row=np.array([1.0, 0.0, 0.0]))
    model_det, _ = default_psr(env_det)
    dataset = DatasetFamily(env_det.space)
    pol = uniform_policy(env_det.space)
    add_history(dataset, pol, History(((1, 0), (0, 0))), 1)
    with pytest.raises(DegenerateHistory):
        conditional_tv_diagnostic(model_det.stack, model_det, dataset, [pol, pol])


def test_make_candidates_include_true(reference_env):
    cands = make_candidates(reference_env, "include_true")
    assert len(cands) == 1
    assert cands.labels == ("true",)


def test_make_candidates_grid_bernoulli():
    env = make_single_state_env(horizon=1, n_obs=2, n_actions=1, emission_row=np.array([0.3, 0.7]))
    cands = make_candidates(env, "grid", eps_grid=0.25, include_true=False)
    assert len(cands) == 5
    first_probs = sorted(float(seq_prob(m, History(((0, 0),)))) for m in cands.models)
    assert np.allclose(first_probs, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12)


@pytest.mark.parametrize("eps", [1.0, 0.5, 1 / 3, 0.25, 0.2, 0.1])
def test_simplex_lattice_matches_the_recursion(eps):
    for dim in range(1, 6):
        got, want = _simplex_lattice(dim, eps), oracle_simplex_lattice(dim, eps)
        assert len(got) == len(want) and all(g.tobytes() == w.tobytes() for g, w in zip(got, want)), dim


@pytest.mark.parametrize(
    "env,eps",
    [
        (near_tie(), 0.5),
        (make_single_state_env(horizon=1, n_obs=3, n_actions=2), 0.25),  # no transition rows
        (make_single_state_env(horizon=2, n_obs=3, n_actions=2), 0.5),
        (random_mdp(3, 2, 2, 2), 0.5),
    ],
    ids=["near_tie", "H1-O3", "H2-O3", "random_mdp(3,2,2,2)"],
)
def test_grid_candidates_follow_the_recursive_order(env, eps):
    """Labels and every member's parameters, bit for bit, as the recursive enumeration orders the grid
    and one-member-at-a-time conversion builds it."""
    cands = make_candidates(env, "grid", eps_grid=eps, include_true=False)
    _, g_true = default_psr(env)
    expected = []
    for idx, (transition, emission) in enumerate(oracle_grid_tables(env, eps)):
        pomdp = TabularPomdp(env.n_states, env.space, transition, emission, env.initial_state, env.reward)
        try:
            expected.append((f"grid({idx})", oracle_pomdp_to_psr(pomdp, g=oracle_g_matrices(pomdp, g_true.m))))
        except (StructuralError, SingularCoreTests):
            continue
    assert cands.labels == tuple(label for label, _ in expected)
    for got, (label, want) in zip(cands.models, expected, strict=True):
        assert_same_model(got, want, label)


@pytest.mark.parametrize(
    "options,message",
    [
        ({"n": "5"}, "n must be an integer"),
        ({"n": 2.0}, "n must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"scale": "x"}, "scale must be a number"),
        ({"emission_scale": "0"}, "emission_scale must be a number"),
        ({"eps_grid": None}, "eps_grid must be a number"),
        ({"eps_grid": 0.0}, "eps_grid must be in"),
        ({"eps_grid": float("nan")}, "eps_grid must be in"),
        ({"eps_grid": -0.5}, "eps_grid must be in"),
        ({"n": -1}, "n must be at least 0"),
        ({"include_true": "no"}, "include_true must be true or false"),
        ({"include_true": 0}, "include_true must be true or false"),
        ({"scale": float("nan")}, "scale must be a finite number at least 0, got nan"),
        ({"scale": -0.1}, "scale must be a finite number at least 0, got -0.1"),
        ({"scale": float("inf")}, "scale must be a finite number at least 0, got inf"),
        ({"emission_scale": float("nan")}, "emission_scale must be a finite number at least 0, got nan"),
        ({"emission_scale": -1}, "emission_scale must be a finite number at least 0, got -1"),
    ],
)
def test_make_candidates_rejects_ill_typed_settings(options, message):
    with pytest.raises(StructuralError, match=message):
        make_candidates(near_tie(), "dithered", **options)


@pytest.mark.parametrize("block", [estimation.FAMILY_BLOCK, 3])
@pytest.mark.parametrize("name", FAMILIES)
def test_candidate_families_match_the_per_member_oracle(monkeypatch, name, block):
    """Labels, core tests and every member's parameters to the bit, or the same error, as one-at-a-time conversion gives.

    At a block of 3 the rounds split up, and the attempts they draw must not change."""
    monkeypatch.setattr(estimation, "FAMILY_BLOCK", block)
    env, options = FAMILIES[name]
    try:
        want_models, want_labels = oracle_make_candidates(env, **options)
    except PsrLabError as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
            make_candidates(env, **options)
        return
    got = make_candidates(env, **options)
    assert got.labels == want_labels
    for label, g, w in zip(got.labels, got.models, want_models, strict=True):
        assert_same_model(g, w, label)


# Grids under the cap; test_grid_candidates_follow_the_recursive_order checks their members against the oracle.
STACKED_FAMILIES = {name: family for name, family in FAMILIES.items() if name != "grid-random_mdp-0.25"} | {
    "grid-random_mdp-0.5": (random_mdp(3, 2, 2, 2), {"mode": "grid", "eps_grid": 0.5}),
    "grid-near_tie-0.5": (near_tie(), {"mode": "grid", "eps_grid": 0.5}),
}


@pytest.mark.parametrize("name", STACKED_FAMILIES)
def test_candidate_set_is_one_stack_of_read_only_views(name):
    """Every member's arrays are read-only views into the set's stacks, and the stacked
    self-consistency violations are each member's own, bit for bit."""
    env, options = STACKED_FAMILIES[name]
    cands = make_candidates(env, **options)
    stack = cands.stack
    assert len(stack) == len(cands.models) == len(cands.labels)
    violations = stack.self_consistency()
    for c, model in enumerate(cands.models):
        for got, stacked in [(model.psi0, stack.psi0), *zip(model.M, stack.M), *zip(model.phi, stack.phi)]:
            assert np.shares_memory(got, stacked) and not got.flags.writeable, (name, c)
            assert got.tobytes() == stacked[c].tobytes(), (name, c)
        want = oracle_check_self_consistency(model)
        assert float(violations[c]).hex() == want.hex() == check_self_consistency(model).hex(), (name, c)
    assert stack.faults() == [None] * len(cands)


def _member_faults(stack):
    """Each member's fault as the per-member oracle finds it on that member's arrays."""
    return [
        oracle_model_fault(stack.space, stack.core_tests, stack.psi0[c], [ops[c] for ops in stack.M], [v[c] for v in stack.phi])
        for c in range(len(stack))
    ]


def test_stack_faults_are_each_members_first_fault():
    """An injected NaN or infinity faults its member with the message that member alone gets;
    a wrong shape faults every member that has no earlier fault."""
    env, options = FAMILIES["online-large"]
    cands = make_candidates(env, **options)
    psi0, M, phi = np.array(cands.stack.psi0), [np.array(ops) for ops in cands.stack.M], [np.array(v) for v in cands.stack.phi]
    M[2][5, 1, 0, 0, 0] = np.nan  # member 5: an operator
    phi[3][7, 0] = np.inf  # member 7: a closing vector
    psi0[7, 0] = -np.inf  # ... and its start vector, which is checked first
    M[5][9, 0, 1] = np.nan  # member 9: the terminal step
    stack = PsrStack(cands.stack.space, cands.stack.core_tests, psi0, tuple(M), tuple(phi))
    got = stack.faults()
    assert got == _member_faults(stack)
    assert [c for c, fault in enumerate(got) if fault] == [5, 7, 9]
    assert got[5] == "M at step 3 has non-finite entries" and got[7] == "start vector psi0 has non-finite entries"
    with pytest.raises(StructuralError, match=rf"^candidate {re.escape(cands.labels[5])}: M at step 3 has non-finite entries$"):
        CandidateSet(stack, cands.labels)
    # Every member: a closing vector of the wrong dim, checked after member 5's to 9's faults.
    stack = PsrStack(stack.space, stack.core_tests, psi0, tuple(M), tuple(phi[:5]) + (phi[5][:, :1], phi[6]))
    got = stack.faults()
    assert got == _member_faults(stack)
    d = cands.models[0].dims[5]
    assert got[0] == f"closing vector at step 5 has dim (1,), expected ({d},)" and got[5] == "M at step 3 has non-finite entries"


@pytest.mark.parametrize("violator,second", [(None, None), (7, None), (None, 4), (7, 4), (2, 4)])
def test_candidate_set_refuses_as_one_member_at_a_time_did(reference_env, violator, second):
    """With up to two self-inconsistent members, the first is refused by label, with the message the
    per-member checks gave."""
    cands = make_candidates(reference_env, "dithered", seed=2, n=9, scale=0.05)
    phi0 = np.array(cands.stack.phi[0])
    for c in (violator, second):
        if c is not None:
            phi0[c] *= 1.0 + 1e-6  # breaks the recursion at step 1
    stack = PsrStack(cands.stack.space, cands.stack.core_tests, cands.stack.psi0, cands.stack.M, (phi0,) + cands.stack.phi[1:])
    want = oracle_candidate_fault(stack.members(), cands.labels)
    if want is None:
        assert CandidateSet(stack, cands.labels).labels == cands.labels
        return
    with pytest.raises(StructuralError, match=f"^{re.escape(want)}$"):
        CandidateSet(stack, cands.labels)


def test_candidate_set_refuses_misuse_by_position(reference_model):
    m = reference_model
    with pytest.raises(StructuralError, match="^a candidate set holds a PsrStack, not a tuple$"):
        CandidateSet((m, m), ("a", "b"))
    with pytest.raises(StructuralError, match="^label 1 is a int, not a str$"):
        CandidateSet(PsrStack.concatenate((m.stack, m.stack)), ("a", 3))
    with pytest.raises(StructuralError, match="^models and labels must align$"):
        CandidateSet(m.stack, ("a", "b"))


def test_candidate_set_keeps_tuples_not_the_callers_lists(reference_env):
    """A list of labels mutated after the set cached its tables changes nothing in the set, and
    two sets of one stack read its one table."""
    cands = make_candidates(reference_env, "dithered", seed=2, n=3, scale=0.05)
    labels = list(cands.labels)
    held = CandidateSet(cands.stack, labels)
    table = held.stack.prob_table(2)
    labels[0] = "changed"
    assert isinstance(held.models, tuple) and isinstance(held.labels, tuple)
    assert held.labels == cands.labels and held.stack.prob_table(2) is table
    assert cands.stack.prob_table(2) is table


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
def test_invalid_dithered_tables_raise_at_once():
    """A draw whose rows overflow to NaN raises the environment's error, as it did when each draw built one."""
    options = {"mode": "dithered", "seed": 0, "n": 4, "scale": 1000.0}
    with pytest.raises(StructuralError, match="^transition has negative or NaN entries$"):
        oracle_make_candidates(near_tie(), **options)
    with pytest.raises(StructuralError, match="^transition has negative or NaN entries$"):
        make_candidates(near_tie(), **options)


def test_all_failing_family_hits_the_attempt_cap_after_the_same_draws(monkeypatch, reference_env):
    draws = []
    perturbed_rows = estimation._perturbed_rows

    def collapsed(rows, scale, rng):
        """Every state takes state 0's perturbed row, so no test tells states apart."""
        draws.append(rows.shape)
        return perturbed_rows(rows, scale, rng)[..., :1, :].repeat(rows.shape[-2], axis=-2)

    monkeypatch.setattr(estimation, "_perturbed_rows", collapsed)
    for build in (oracle_make_candidates, make_candidates):
        with pytest.raises(StructuralError, match="^dithering kept failing to produce valid candidates$"):
            build(reference_env, "dithered", seed=1, n=3)
    assert len(draws) == 2 * 2 * 3 * MAX_ATTEMPTS_PER_CANDIDATE  # two paths, two tables per attempt
    assert draws[: len(draws) // 2] == draws[len(draws) // 2 :]


def test_grid_cap_is_checked_before_any_lattice(monkeypatch):
    calls = []
    simplex_lattice = estimation._simplex_lattice
    monkeypatch.setattr(estimation, "_simplex_lattice", lambda *args: calls.append(args) or simplex_lattice(*args))
    env = make_single_state_env(horizon=1, n_obs=14, n_actions=1)
    with pytest.raises(StructuralError, match=r"^grid would have 1144066 members \(cap 100000\)$"):
        make_candidates(env, "grid", eps_grid=0.1)
    assert calls == []


def test_make_candidates_grid_guard(reference_env):
    with pytest.raises(StructuralError):
        make_candidates(reference_env, "grid", eps_grid=0.25)


def test_make_candidates_dithered_contract(reference_env):
    cands = make_candidates(reference_env, "dithered", seed=4, n=50, scale=0.05)
    assert len(cands) == 51  # truth plus 50 perturbations
    assert cands.labels[0] == "true"
    from psrlab.psr import check_self_consistency

    assert all(check_self_consistency(m) <= 1e-9 for m in cands.models)


def test_grid_mle_hellinger_near_best_neighbor():
    """Selected model's Hellinger gap to truth stays within 7*beta/K of the
    grid-nearest member, across seeded datasets."""
    from psrlab.offline import collect_offline
    from psrlab.policies import uniform_policy
    from psrlab.pomdp import random_revealing
    from psrlab.psr import hellinger_sq

    env = random_revealing(seed=13, n_states=2, n_obs=2, n_actions=1, horizon=2,
                           alpha_threshold=0.05)
    truth, _ = default_psr(env)
    cands = make_candidates(env, "grid", eps_grid=0.5, include_true=False)
    behavior = uniform_policy(env.space)
    K = 200
    delta = 0.05
    beta_stat = 31.0 * math.log(K * len(cands) / delta)
    distances = np.array([hellinger_sq(m, truth, behavior) for m in cands.models])
    nearest = float(distances.min())
    hits = 0
    n_runs = 20
    for seed in range(n_runs):
        dataset = collect_offline(env, behavior, K, seed)
        result = constrained_mle(cands, dataset, p_min=1e-12, beta=beta_stat)
        if distances[result.selected_id] <= nearest + 7.0 * beta_stat / K + 1e-12:
            hits += 1
        # sharper, desk-scale sanity: selection lands well inside the family
        assert distances[result.selected_id] <= float(np.median(distances))
    assert hits >= (1 - delta) * n_runs


def test_dataset_bucket_validation(reference_env):
    space = reference_env.space
    dataset = DatasetFamily(space)
    lex, weights = reference_env.sample_episode(uniform_policy(space), seed_uniforms(space, 1))
    with pytest.raises(StructuralError, match="every prefix"):
        dataset.add(lex[:-1], weights[:-1], 0)  # not full length
    with pytest.raises(StructuralError, match="split step"):
        dataset.add(lex, weights, 5)
    with pytest.raises(StructuralError, match="in range"):
        dataset.add(lex[:-1] + [space.n_trajectories], weights, 0)  # past the last leaf
    assert dataset.size() == 0


def _oracle_log_likelihood(model, dataset, policies):
    """Per-entry fsum of log seq_prob + log policy weight, bucket ``h`` drawn under ``policies[h]``; -inf if any is zero."""
    terms = []
    for bucket, policy in zip(decoded_trajectories(dataset), policies, strict=True):
        for traj in bucket:
            p = seq_prob(model, traj)
            w = oracle_policy_weight(policy, traj)
            if p <= 0.0 or w <= 0.0:
                return float("-inf")
            terms.append(math.log(p) + math.log(w))
    return math.fsum(terms)


def _oracle_feasible(model, dataset, p_min, policies):
    return all(
        seq_prob(model, prefix) * oracle_policy_weight(policy, prefix) >= p_min
        for h, (bucket, policy) in enumerate(zip(decoded_trajectories(dataset), policies, strict=True))
        for traj in bucket
        for prefix in (History(traj.steps[:h]),)
    )


def _exploration_policies(space, core):
    """The exploration policy of each bucket under a uniform prefix, as the online loop's first iteration draws."""
    return [exploration_policy(uniform_policy(space), h, core) for h in range(1, space.horizon + 1)]


def test_likelihood_and_feasibility_match_per_entry_oracle(reference_env):
    from psrlab.offline import collect_offline

    cands = make_candidates(reference_env, "dithered", seed=3, n=8, scale=0.3)
    space = reference_env.space
    explorers = _exploration_policies(space, cands.models[0].core_tests)
    for seed in range(4):
        datasets = [(collect_offline(reference_env, uniform_policy(space), 30, seed), [uniform_policy(space)] * space.horizon)]
        explore = DatasetFamily(space)
        for k in range(10):
            for h, pol in enumerate(explorers, start=1):
                add_drawn(explore, reference_env, pol, 1000 * seed + 10 * k + h, h - 1)
        datasets.append((explore, explorers))
        for dataset, policies in datasets:
            for model in cands.models:
                assert log_likelihood(model, dataset) == pytest.approx(
                    _oracle_log_likelihood(model, dataset, policies), rel=1e-12, abs=1e-12
                )
                for p_min in (1e-10, 1e-3, 0.05):
                    assert theta_min_feasible(model, dataset, p_min) == _oracle_feasible(model, dataset, p_min, policies)


def test_likelihood_oracle_edge_cases():
    env = make_single_state_env(horizon=1, n_obs=2, n_actions=2, emission_row=np.array([1.0, 0.0]))
    model, _ = default_psr(env)
    policies = [uniform_policy(env.space)]
    dataset = DatasetFamily(env.space)
    add_history(dataset, policies[0], History(((1, 0),)), 0)
    assert log_likelihood(model, dataset) == _oracle_log_likelihood(model, dataset, policies) == float("-inf")
    dataset = DatasetFamily(env.space)
    add_history(dataset, policies[0], History(((0, 1),)), 0)
    # the empty prefix has weight 1, so only a floor above 1 is infeasible
    assert theta_min_feasible(model, dataset, 1.0) is _oracle_feasible(model, dataset, 1.0, policies) is True
    assert theta_min_feasible(model, dataset, 1.5) is _oracle_feasible(model, dataset, 1.5, policies) is False


def test_add_rejects_bad_lex_indices_and_keeps_columns_aligned(reference_env):
    space = reference_env.space
    dataset = DatasetFamily(space)
    lex, weights = reference_env.sample_episode(uniform_policy(space), seed_uniforms(space, 3))
    for bad in (
        [0, lex[1], float(lex[2])],  # not an integer
        [0, lex[1], -1],
        [0, lex[1], space.n_trajectories],
        [0, -1, lex[2]],
        [0, space.n_histories(1), lex[2]],  # in range for the leaves, not for depth 1
    ):
        with pytest.raises(StructuralError, match="integers in range"):
            dataset.add(bad, weights, 1)
    dataset.add(lex, weights, 1)
    assert [len(column) for column in dataset.columns[1]] == [1] * 4
    assert list(dataset.columns[1].trajectory) == [lex[-1]] and list(dataset.columns[1].prefix) == [lex[1]]


def _oracle_selection(cands, dataset, p_min, beta, policies):
    """Stable ids, their per-entry log-likelihoods, the selected id and the margin set."""
    stable = [i for i, m in enumerate(cands.models) if _oracle_feasible(m, dataset, p_min, policies)]
    liks = [_oracle_log_likelihood(cands.models[i], dataset, policies) for i in stable]
    best = max(liks)
    selected = min(i for i, lik in zip(stable, liks) if lik == best)
    return stable, liks, selected, tuple(i for i, lik in zip(stable, liks) if lik >= best - beta)


def _reweighted_emission(env, step, obs, factor):
    """Copy of the environment with one observation's emission probability scaled at one step."""
    from psrlab.pomdp import TabularPomdp

    emission = env.emission.copy()
    emission[step, :, obs] *= factor
    emission /= emission.sum(axis=-1, keepdims=True)
    return TabularPomdp(env.n_states, env.space, env.transition, emission, env.initial_state, env.reward)


def _staged_candidates(env):
    """Dithered members plus one that never emits the last step's obs 2 (-inf once that obs
    is recorded) and one that makes the first obs 0 rare (unstable under ``p_min = 1e-3``)."""
    from psrlab.pomdp import g_matrices, pomdp_to_psr

    dithered = make_candidates(env, "dithered", seed=3, n=8, scale=0.08)
    window = default_psr(env)[1].m
    extra = [_reweighted_emission(env, env.space.horizon - 1, 2, 0.0), _reweighted_emission(env, 0, 0, 1e-3)]
    return CandidateSet(
        PsrStack.concatenate([dithered.stack, *(pomdp_to_psr(p, g=g_matrices(p, window)).stack for p in extra)]),
        dithered.labels + ("never-last-obs", "rare-first-obs"),
    )


def _assert_fresh_pass_bits(result, cands, dataset, p_min, beta):
    """``result`` carries the one-pass oracle's stable set and log-likelihood bits, and its selection."""
    stable, logliks = oracle_stability_and_likelihood(cands.stack.prob_table, dataset, p_min)
    ids = np.flatnonzero(stable)
    liks = logliks[ids]
    assert [x.hex() for x in result.log_likelihoods] == [float(x).hex() for x in liks]
    assert result.selected_id == int(ids[np.argmax(liks)])
    assert result.feasible_ids == tuple(ids[liks >= liks.max() - beta].tolist())


def test_constrained_mle_matches_per_entry_oracle_on_staged_growth(reference_env):
    """The stacked selection equals a per-entry recomputation after every stage
    of a growing dataset, with a -inf member and an unstable member present;
    its log-likelihoods are the one-pass oracle's bit for bit."""

    space = reference_env.space
    cands = _staged_candidates(reference_env)
    neg_inf_id, unstable_id = len(cands) - 2, len(cands) - 1
    p_min, beta = 1e-3, 2.0
    explorers = _exploration_policies(space, cands.models[0].core_tests)
    dataset = DatasetFamily(space)
    for stage in range(5):
        for k in range(4):
            for h, pol in enumerate(explorers, start=1):
                add_drawn(dataset, reference_env, pol, 100 * stage + 10 * k + h, h - 1)
        result = constrained_mle(cands, dataset, p_min, beta)
        _assert_fresh_pass_bits(result, cands, dataset, p_min, beta)
        stable, liks, selected, margin = _oracle_selection(cands, dataset, p_min, beta, explorers)
        assert result.selected_id == selected
        assert result.feasible_ids == margin
        assert len(result.log_likelihoods) == len(liks)
        for got, want in zip(result.log_likelihoods, liks):
            assert got == pytest.approx(want, rel=1e-12)
    assert neg_inf_id in stable and liks[stable.index(neg_inf_id)] == float("-inf")
    assert unstable_id not in stable


def test_selection_record_matches_fresh_pass_bitwise_through_add_add_batch_and_switches(reference_env):
    """The dataset's running record gives the fresh pass's bits after every stage, whether the
    stage grew the dataset through ``add`` or ``add_batch``; another candidate set or ``p_min``
    on the same dataset starts the record from zero, and switching back starts it again."""
    from psrlab.seeding import child_seed

    space = reference_env.space
    cands = _staged_candidates(reference_env)
    others = make_candidates(reference_env, "dithered", seed=11, n=5, scale=0.2)
    neg_inf_id, unstable_id = len(cands) - 2, len(cands) - 1
    p_min, other_p_min, beta = 1e-3, 1e-6, 2.0
    core = cands.models[0].core_tests
    dataset = DatasetFamily(space)
    assert dataset._selection is None
    _assert_fresh_pass_bits(constrained_mle(cands, dataset, p_min, beta), cands, dataset, p_min, beta)  # no entries
    for stage in range(12):
        if stage % 3 == 2:  # one batch per step, spread over every bucket
            for h in range(1, space.horizon + 1):
                pol = exploration_policy(uniform_policy(space), h, core)
                seeds = [child_seed(stage, "record-batch", 10 * h + i) for i in range(7)]
                lex, weights = reference_env.sample_episodes(pol, seeds)
                dataset.add_batch(lex, weights, np.arange(7) % space.horizon)
        else:
            for h in range(1, space.horizon + 1 - stage % 2):  # odd stages leave the last bucket alone
                pol = exploration_policy(uniform_policy(space), h, core)
                add_drawn(dataset, reference_env, pol, child_seed(stage, "record-add", h), h - 1)
        record = dataset._selection
        result = constrained_mle(cands, dataset, p_min, beta)
        assert stage == 0 or dataset._selection is record  # kept, so only the new entries were read
        assert dataset._selection.consumed == [len(cols.trajectory) for cols in dataset.columns]
        _assert_fresh_pass_bits(result, cands, dataset, p_min, beta)
        if stage % 4 == 3:
            for switched_cands, switched_p_min in ((others, p_min), (cands, other_p_min), (cands, p_min)):
                switched = constrained_mle(switched_cands, dataset, switched_p_min, beta)
                assert dataset._selection is not record
                assert dataset._selection.key is switched_cands and dataset._selection.p_min == switched_p_min
                record = dataset._selection
                _assert_fresh_pass_bits(switched, switched_cands, dataset, switched_p_min, beta)
        for model in (cands.models[0], cands.models[neg_inf_id], cands.models[unstable_id]):
            stack = lambda h, model=model: model.prob_table(h)[None]
            stable, logliks = oracle_stability_and_likelihood(stack, dataset, p_min)
            assert log_likelihood(model, dataset).hex() == float(logliks[0]).hex()
            assert theta_min_feasible(model, dataset, p_min) is bool(stable[0])
    stable_ids = np.flatnonzero(oracle_stability_and_likelihood(cands.stack.prob_table, dataset, p_min)[0]).tolist()
    assert neg_inf_id in stable_ids and result.log_likelihoods[stable_ids.index(neg_inf_id)] == float("-inf")
    assert unstable_id not in stable_ids


def test_selection_record_rejects_shrunken_columns(reference_env, small_dataset):
    cands = make_candidates(reference_env, "dithered", seed=3, n=3, scale=0.05)
    constrained_mle(cands, small_dataset, 1e-10, 5.0)
    for column in small_dataset.columns[1]:
        column.pop()
    with pytest.raises(StructuralError, match="append-only"):
        constrained_mle(cands, small_dataset, 1e-10, 5.0)


def test_candidate_prob_table_rows_are_the_members_tables():
    """Through the 41-member online-large stack, every member's tables are its rows of the stack's,
    bit-equal to the same model's tables built alone."""
    env, options = FAMILIES["online-large"]
    cands = make_candidates(env, **options)
    space = env.space
    assert len(cands) == 41
    alone = [model_from_arrays(m.space, m.core_tests, m.psi0, m.M, m.phi) for m in cands.models]
    for h in range(1, space.horizon + 1):
        stacked = cands.stack.prob_table(h)
        assert stacked is cands.stack.tables(h)[1]
        assert stacked.shape == (len(cands), space.n_histories(h))
        assert not stacked.flags.writeable
        for row, model, own in zip(stacked, cands.models, alone):
            assert np.shares_memory(row, model.prob_table(h)) and row.tobytes() == model.prob_table(h).tobytes()
            assert np.shares_memory(cands.stack.tables(h)[0], model.state_table(h))
            assert own.prob_table(h).tobytes() == row.tobytes()
            assert own.state_table(h).tobytes() == model.state_table(h).tobytes()


def test_bucket_weight_columns_match_per_history_oracle(reference_env, monkeypatch):
    from pathlib import Path

    from psrlab import online
    from psrlab.cli import build_candidates, build_env
    from psrlab.offline import collect_offline

    config = json.loads((Path(__file__).resolve().parent.parent / "configs" / "online_decay.json").read_text())
    env = build_env(config["env"])
    on = config["online"]
    cfg = online.OnlineConfig(
        max_iterations=30, epsilon=on["epsilon"], delta=on["delta"], p_min=on["p_min"],
        beta=on["beta"], lam=on["lambda"], alpha=on["alpha"], seed=0,
    )
    explored = [[] for _ in range(env.space.horizon)]  # the policy of each online entry, by bucket
    online_explore = online._explore

    def recording_explore(prefix, h, suffixes):
        explored[h - 1].append(online_explore(prefix, h, suffixes))
        return explored[h - 1][-1]

    monkeypatch.setattr(online, "_explore", recording_explore)
    online_data = online.run_psr_ucb(env, cfg, build_candidates(env, config["candidates"])).dataset
    behavior = UniformActionSeqPolicy(reference_env.space.n_actions, 1, ((), (1,), (1, 0)))
    offline_data = collect_offline(reference_env, behavior, 200, 4)
    loaded = DatasetFamily(reference_env.space)  # the same entries, one add each
    for h, bucket in enumerate(decoded_trajectories(offline_data)):
        for traj in bucket:
            add_history(loaded, behavior, traj, h)
    assert_same_columns(loaded, offline_data)
    behaviors = [[behavior] * len(cols.trajectory) for cols in offline_data.columns]
    for dataset, recorded in ((online_data, explored), (offline_data, behaviors), (loaded, behaviors)):
        assert dataset.size() > 0
        for h, (bucket, policies) in enumerate(zip(decoded_trajectories(dataset), recorded, strict=True)):
            cols = dataset.columns[h]
            prefix = [oracle_policy_weight(p, History(traj.steps[:h])) for p, traj in zip(policies, bucket, strict=True)]
            full = [oracle_policy_weight(p, traj) for p, traj in zip(policies, bucket, strict=True)]
            assert np.asarray(cols.prefix_weight).tobytes() == np.array(prefix, dtype=float).tobytes()
            assert np.asarray(cols.full_weight).tobytes() == np.array(full, dtype=float).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_conditional_tv_matches_entry_oracle_on_staged_growth(small_env, seed):
    """The diagnostic of the whole candidate stack, one continuation pass per bucket, equals the
    trajectory-walking oracle of each member bit for bit after every stage of a growing dataset
    drawn under one random tree policy per step."""
    from psrlab.policies import random_tree_policy
    from psrlab.seeding import child_seed

    space = small_env.space
    cands = make_candidates(small_env, "dithered", seed=3, n=6, scale=0.08)
    truth = cands.models[0]
    dataset = DatasetFamily(space)
    buckets = [[] for _ in range(space.horizon)]
    policies = [random_tree_policy(space, child_seed(seed, f"ctv-step-{h}")) for h in range(space.horizon)]
    for stage in range(4):
        for k in range(3):
            for h, pol in enumerate(policies):
                episode_seed = child_seed(seed, "ctv-episode", 100 * stage + 10 * k + h)
                buckets[h].append(add_drawn(dataset, small_env, pol, episode_seed, h))
        got = conditional_tv_diagnostic(cands.stack, truth, dataset, policies)
        want = [oracle_conditional_tv_diagnostic(model, truth, policies, buckets) for model in cands.models]
        assert [value.hex() for value in got.tolist()] == [value.hex() for value in want]


def test_a_dataset_or_model_from_another_space_is_refused():
    """Selection, the likelihood, the grams and the conditional-TV diagnostic gather at lex indices
    of one tree, so a dataset or a second model on another space is a ``StructuralError`` naming
    both spaces, not a silent gather from the wrong tree or a reshape error."""
    from psrlab.bonus import prefix_grams
    from psrlab.offline import collect_offline
    from psrlab.pomdp import tiger

    near, tig = near_tie(), tiger(2)
    cands = make_candidates(tig, "include_true")
    dataset = collect_offline(near, uniform_policy(near.space), 10, 0)
    other, model = default_psr(near)[0], cands.models[0]
    policies = [uniform_policy(near.space)] * near.space.horizon
    refusals = [
        ("candidates and dataset", tig, near, lambda: constrained_mle(cands, dataset, 1e-9, 1.0)),
        ("model and dataset", tig, near, lambda: log_likelihood(model, dataset)),
        ("model and dataset", tig, near, lambda: prefix_grams(model, dataset, 1.0)),
        ("models", tig, near, lambda: conditional_tv_diagnostic(cands.stack, other, dataset, policies)),
        ("models and dataset", near, tig, lambda: conditional_tv_diagnostic(other.stack, other, DatasetFamily(tig.space), policies)),
    ]
    for what, first, second, call in refusals:
        spaces = f"{re.escape(str(first.space))} and {re.escape(str(second.space))}"
        with pytest.raises(StructuralError, match=f"^{what} live on different spaces: {spaces}$"):
            call()
    assert dataset._selection is None
