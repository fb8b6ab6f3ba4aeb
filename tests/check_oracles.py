"""Reference implementations of verify's table checks, the value functional,
the offline exploration minimum, the elliptical potential, the planner and
the bonus sums.

These are the loops the package ran before the checks became per-depth
table passes: the estimation-error sum walking each trajectory step by step,
the feature-update identity tested one (history, obs, action) at a time, the
exploration minimum recursing through ``action_row`` node by node, the
policy value calling a leaf function per trajectory, the prefix
probability summed over hidden-state sequences, and the elliptical
potential growing one gram and solving it once per vector.  The planner's
oracle reduces each depth with ``argmax``/``max``/``sum`` over the action
and observation axes, the bonus oracles add every step's repeated scores
into a leaf-sized array, the gram oracle is the former ``FeatureGram.build``
(which skipped the product for an empty batch and took the dimension as an
argument), and the stacked-states oracle takes each forward step as one
einsum batched over the model axis.
The grid oracles are the recursive lattice and row-product enumerations
that built grid candidates before they became ``itertools.product`` walks.
The conversion oracles build every candidate's PSR on its own, as before
conversion became one stacked pass per family: a ``TabularPomdp`` per
member, its own test walk, its SVDs and pseudo-inverses one step at a
time, and one small matmul per (step, observation, action).  They also
validate one member at a time, as before a family became one validated
stack: :func:`oracle_model_fault` is the checks ``PsrModel`` ran on its
own copies, :func:`oracle_check_self_consistency` one model's recursion
violation, and :func:`oracle_candidate_fault` the loop a candidate set ran
over its members, dims and then self-consistency, one member at a time.
Verify's exploration collection draws and adds one episode at a time, and
the conditional-TV diagnostic walks one decoded trajectory at a time, as
when a dataset kept its entries as objects next to its columns.  Model
selection's oracle gathers and reduces every recorded entry in one pass, as
selection did before it kept a running record on the dataset, and
:func:`theta_min_feasible` is one model's ``p_min`` stability flag, and
:func:`oracle_prefix_loglik` one model's prefix log-likelihood, summed one
entry at a time as verify's likelihood events did before they read the
whole candidate stack at once.  The
confidence-bound validity check builds and weighs one tree policy object at
a time, as before its policies' weights came from one stacked table.  Tests
compare the package against them bit for bit.  :func:`dataset_jsonl` is the
dataset's former JSONL text, which the golden tests hash; a dataset no
longer records policy ids, so the test supplies each entry's label.
"""

import json
import math

import numpy as np
import scipy.linalg

from conftest import model_from_arrays
from policy_oracles import action_row, add_drawn, exploration_policy, oracle_policy_weight, seed_uniforms
from pomdp_oracles import history_from_lex, psi
from psrlab import estimation
from psrlab.errors import DegenerateHistory, EmptyFeasibleSet, SingularCoreTests, StructuralError
from psrlab.estimation import (
    MAX_ATTEMPTS_PER_CANDIDATE,
    MAX_CANDIDATES,
    DatasetFamily,
    _SelectionRecord,
    constrained_mle,
)
from psrlab.online import _build_evaluator
from psrlab.planner import plan_on_table
from psrlab.pomdp import (
    ALPHA_FLOOR,
    MAX_CONDITION,
    PINV_RCOND,
    GMatrices,
    TabularPomdp,
    window_tests,
)
from psrlab.policies import continuation_weights, policy_weight_vector, random_tree_policy, uniform_policy
from psrlab.psr import PSI_GUARD, PsrModel, make_core_test_set
from psrlab.seeding import child_seed, rng_for
from psrlab.spaces import History


def oracle_estimation_error_bound(model_hat, model, policy):
    space = model.space
    weights = policy_weight_vector(policy, space)
    terms = []
    for idx in range(space.n_trajectories):
        if weights[idx] == 0.0:
            continue
        traj = history_from_lex(space, space.horizon, idx)
        for h in range(1, space.horizon + 1):
            o, a = traj.steps[h - 1]
            delta = model_hat.M[h - 1][o, a] - model.M[h - 1][o, a]
            v = delta @ psi(model, History(traj.steps[:h - 1]))
            for j, (o2, a2) in enumerate(traj.steps[h:], start=h + 1):
                v = model_hat.M[j - 1][o2, a2] @ v
            terms.append(weights[idx] * abs(float(model_hat.phi[space.horizon] @ v)))
    return math.fsum(terms)


def oracle_conditional_update_violation(model):
    space = model.space
    worst = 0.0
    for h in range(space.horizon):
        feats = model.feature_table(h)
        probs = model.prob_table(h)
        next_probs = model.prob_table(h + 1)
        next_feats = model.feature_table(h + 1)
        for idx in range(space.n_histories(h)):
            if probs[idx] <= PSI_GUARD:
                continue
            for pair in range(space.pair_count):
                o, a = divmod(pair, space.n_actions)
                child = idx * space.pair_count + pair
                if next_probs[child] <= PSI_GUARD:
                    continue
                lhs = model.M[h][o, a] @ feats[idx]
                cond = next_probs[child] / probs[idx]
                worst = max(worst, float(np.abs(lhs - cond * next_feats[child]).max()))
    return worst


def oracle_min_exploration_prob(behavior, core_tests):
    space = core_tests.space
    worst = 1.0
    for h in range(space.horizon):
        for seq in core_tests.exploration_seqs[h]:
            if not seq:
                continue
            worst = min(worst, _oracle_min_seq_prob(behavior, space, h, seq))
    return worst


def _oracle_min_seq_prob(behavior, space, h, seq):
    def min_over_prefix(hist):
        if len(hist) == h:
            return seq_prob_from(hist, 0)
        best = math.inf
        for o in range(space.n_obs):
            probs = action_row(behavior, space, hist, o)
            for a in range(space.n_actions):
                if probs[a] > 0.0:
                    best = min(best, min_over_prefix(hist.extend(o, a)))
        return best

    def seq_prob_from(hist, j):
        if j == len(seq):
            return 1.0
        best = math.inf
        for o in range(space.n_obs):
            p = float(action_row(behavior, space, hist, o)[seq[j]])
            if p == 0.0:
                return 0.0
            best = min(best, p * seq_prob_from(hist.extend(o, seq[j]), j + 1))
        return best

    return min_over_prefix(History())


def oracle_value(model, policy, leaf_fn):
    """Expected leaf value over the policy-induced trajectory law."""
    space = model.space
    weights = policy_weight_vector(policy, space)
    probs = model.prob_table(space.horizon)
    terms = [
        weights[idx] * probs[idx] * leaf_fn(history_from_lex(space, space.horizon, idx))
        for idx in range(space.n_trajectories)
        if weights[idx] * probs[idx] != 0.0
    ]
    return float(math.fsum(terms))


def brute_force_prefix_prob(env, history):
    """Sum over all hidden state sequences of emission/transition products."""
    h = len(history)
    if h == 0:
        return 1.0
    total = 0.0
    S = env.n_states
    seqs = [[s] for s in range(S)]
    for _ in range(h - 1):
        seqs = [seq + [s] for seq in seqs for s in range(S)]
    for seq in seqs:
        if seq[0] != env.initial_state:
            continue
        p = 1.0
        for j, (o, a) in enumerate(history.steps, start=1):
            p *= env.emission[j - 1, seq[j - 1], o]
            if j < h:
                p *= env.transition[j - 1, a, seq[j - 1], seq[j]]
        total += p
    return total


def oracle_elliptical_lhs(X, lam, B):
    """Left side of the elliptical potential check: one running gram and one solve per vector."""
    gram = lam * np.eye(X.shape[1])
    terms = []
    for x in X:
        gram = gram + np.outer(x, x)
        terms.append(min(float(x @ np.linalg.solve(gram, x)), B))
    return math.fsum(terms)


def oracle_plan_on_table(space, leaves):
    """Backward induction by argmax and max over the action axis; returns (action tables, value).

    The tables are cast to the smallest unsigned type that holds every action
    index, the type tree policies store."""
    values = leaves
    dtype = np.min_scalar_type(space.n_actions - 1)
    choices = []
    for _ in range(space.horizon):
        shaped = values.reshape(-1, space.n_obs, space.n_actions)
        choices.append(shaped.argmax(axis=2).reshape(-1).astype(dtype))  # first max = lowest action
        values = shaped.max(axis=2).sum(axis=1)
    choices.reverse()
    return tuple(choices), float(values[0])


def oracle_stacked_states(models, h):
    """States of all length-``h`` histories for a stack of models: one einsum per depth over every model at once."""
    n = len(models)
    states = np.stack([m.psi0[None] for m in models])
    for j in range(h):
        ops = np.stack([m.M[j] for m in models]).reshape(n, -1, *models[0].M[j].shape[2:])
        states = np.einsum("ckij,cnj->cnki", ops, states).reshape(n, -1, ops.shape[2])
    return states


def oracle_score_table(evaluator):
    """Summed prefix scores and degenerate flags, each step's scores repeated into the leaves.

    Features are divided from the model's state and probability tables here,
    a prefix whose probability is not above ``PSI_GUARD`` scoring a zero row,
    so the oracle does not read the model's cached features or masks.
    """
    model = evaluator.feature_source
    space = model.space
    totals = np.zeros(space.n_trajectories)
    degenerate = np.zeros(space.n_trajectories, dtype=bool)
    for h in range(space.horizon):
        states = model.state_table(h)
        probs = (states @ model.phi[h][:, None])[:, 0]  # at the root too, where prob_table reads 1
        bad = ~(probs > PSI_GUARD)
        feats = np.where(bad[:, None], 0.0, states / np.where(bad, 1.0, probs)[:, None])
        scores = oracle_gram_scores(evaluator.grams[h], feats)
        reps = space.pair_count ** (space.horizon - h)
        totals += np.repeat(scores, reps)
        degenerate |= np.repeat(bad, reps)
    return totals, degenerate


def oracle_feature_gram_matrix(dim, lam, features, counts=None):
    """The regularized gram of a batch of features, optionally with multiplicities."""
    mat = lam * np.eye(dim)
    if len(features):
        F = np.asarray(features, dtype=float)
        if counts is None:
            mat = mat + F.T @ F
        else:
            mat = mat + (F * counts[:, None]).T @ F
    mat = 0.5 * (mat + mat.T)
    return mat


def oracle_gram_scores(gram, X):
    """Row-wise Mahalanobis scores through scipy's Cholesky wrappers."""
    solved = scipy.linalg.cho_solve(scipy.linalg.cho_factor(gram.matrix), X.T)
    return np.einsum("ij,ji->i", X, solved)


def oracle_bonus_table(evaluator):
    totals, degenerate = oracle_score_table(evaluator)
    out = np.minimum(evaluator.alpha * np.sqrt(np.maximum(totals, 0.0)), 1.0)
    out[degenerate] = 1.0
    return out


def oracle_online_dataset(env, config, candidates, core_tests):
    """The online loop's dataset, each episode drawn from its own ``default_rng``.

    Episode ``h`` of iteration ``k`` reads the first ``3H - 1`` doubles of
    ``default_rng(child_seed(seed, "episode", k * (H + 1) + h))``; selection,
    bonus and plan are the package's, and the loop stops where it does.
    """
    space = env.space
    dataset = DatasetFamily(space)
    previous = uniform_policy(space)
    for k in range(1, config.max_iterations + 1):
        for h in range(1, space.horizon + 1):
            uniforms = seed_uniforms(space, child_seed(config.seed, "episode", k * (space.horizon + 1) + h))
            dataset.add(*env.sample_episode(exploration_policy(previous, h, core_tests), uniforms), h - 1)
        mle = constrained_mle(candidates, dataset, config.p_min, config.beta)
        bonus = _build_evaluator(mle.model, dataset, config.lam, config.alpha).bonus_table()
        previous, value = plan_on_table(space, mle.model.prob_table(space.horizon) * bonus)
        if value <= config.epsilon / 2.0:
            break
    return dataset


def oracle_uniform_collection(env, model, n_rounds, seed):
    """Verify's exploration collection one episode at a time.

    Returns the dataset, the exploration policy of each bucket, and each
    bucket's trajectories in insertion order.
    """
    space = env.space
    dataset = DatasetFamily(space)
    buckets = [[] for _ in range(space.horizon)]
    base = uniform_policy(space)
    policies = [exploration_policy(base, h, model.core_tests) for h in range(1, space.horizon + 1)]
    for k in range(1, n_rounds + 1):
        for h, policy in enumerate(policies, start=1):
            episode_seed = child_seed(seed, "verify-episode", k * (space.horizon + 1) + h)
            buckets[h - 1].append(add_drawn(dataset, env, policy, episode_seed, h - 1))
    return dataset, policies, buckets


def oracle_conditional_tv_diagnostic(model_a, model_b, policies, buckets):
    """Summed squared conditional TV over per-bucket lists of trajectories, bucket ``h`` drawn under ``policies[h]``."""
    space = model_a.space
    table_a = model_a.prob_table(space.horizon)
    table_b = model_b.prob_table(space.horizon)
    terms = []
    for h, (bucket, policy) in enumerate(zip(buckets, policies, strict=True)):
        if not bucket:
            continue
        prefix = np.array([History(traj.steps[:h]).lex_index(space) for traj in bucket], dtype=np.int64)
        pa = model_a.prob_table(h)[prefix]
        pb = model_b.prob_table(h)[prefix]
        wp = np.array([oracle_policy_weight(policy, History(traj.steps[:h])) for traj in bucket])
        if np.any(pa * wp <= 0.0) or np.any(pb * wp <= 0.0):
            raise DegenerateHistory(f"prefix at step {h} has zero probability under a compared model")
        reps = space.pair_count ** (space.horizon - h)
        weights = continuation_weights(policy, space, h, prefix)
        cond_a = table_a.reshape(-1, reps)[prefix] / pa[:, None]
        cond_b = table_b.reshape(-1, reps)[prefix] / pb[:, None]
        for row in np.abs(weights * (cond_a - cond_b)).tolist():
            tv = math.fsum(row)
            terms.append(tv * tv)
    return math.fsum(terms)


def oracle_bound_holds(model, evaluator, true_table, reward_leaves, seed, n_policies):
    """``|V_model - V_true| <= V_bonus`` for each of a run's random tree policies, one policy object at a time."""
    space = model.space
    model_table = model.prob_table(space.horizon)
    bonus_t = evaluator.bonus_table()
    for j in range(n_policies):
        pol = random_tree_policy(space, child_seed(seed, "validity-policy", j))
        w = policy_weight_vector(pol, space)
        v_model = float(np.dot(w, model_table * reward_leaves))
        v_true = float(np.dot(w, true_table * reward_leaves))
        v_bonus = float(np.dot(w, model_table * bonus_t))
        if abs(v_model - v_true) > v_bonus + 1e-12:
            return False
    return True


def oracle_stability_and_likelihood(prob_table, dataset, p_min):
    """Stability flags and log-likelihoods of a stack of models, from every entry at once.

    ``prob_table(h)`` returns the models' ``(n_models, n_histories(h))``
    probabilities.  The gathered ``(n_models, n_entries)`` block is
    F-ordered, so its row sums add each model's log probabilities left to
    right in bucket-then-insertion order (pairwise for a stack of one); the
    log weights add pairwise as one vector.
    """
    columns = dataset.columns
    stable = np.ones(prob_table(0).shape[0], dtype=bool)
    for h, cols in enumerate(columns):
        if cols.prefix:
            stable &= ~np.any(prob_table(h)[:, cols.prefix] * cols.prefix_weight < p_min, axis=1)
    probs = prob_table(dataset.space.horizon)[:, np.concatenate([cols.trajectory for cols in columns])]
    weights = np.concatenate([cols.full_weight for cols in columns])
    with np.errstate(divide="ignore", invalid="ignore"):  # log of p <= 0 is -inf or NaN
        logliks = np.log(probs).sum(axis=1) + np.log(weights).sum()
    logliks[np.isnan(logliks)] = float("-inf")
    return stable, logliks


def decoded_trajectories(dataset):
    """Per-bucket lists of the trajectories decoded from a dataset's trajectory columns."""
    space = dataset.space
    return [[history_from_lex(space, space.horizon, t) for t in cols.trajectory] for cols in dataset.columns]


def dataset_jsonl(dataset, label):
    """One JSON record per entry, bucket by bucket in insertion order, steps decoded from the trajectory indices.

    ``label(h, i)`` is the ``policy_id`` text of entry ``i`` of bucket ``h``.
    """
    space = dataset.space
    place = space.pair_count ** np.arange(space.horizon - 1, -1, -1)  # lex weight of each step's pair
    lines = []
    for h, cols in enumerate(dataset.columns):
        pairs = np.asarray(cols.trajectory)[:, None] // place % space.pair_count
        steps = np.stack(np.divmod(pairs, space.n_actions), axis=-1).tolist()
        lines.extend(
            json.dumps({"h": h, "policy_id": label(h, i), "trajectory": traj}, separators=(",", ":"))
            for i, traj in enumerate(steps)
        )
    return "\n".join(lines) + ("\n" if lines else "")


def oracle_prefix_loglik(model: PsrModel, dataset: DatasetFamily) -> float:
    """Sum over buckets of each entry's own-step prefix log probability, one ``math.log`` per entry."""
    terms = []
    for h, cols in enumerate(dataset.columns):
        probs = model.prob_table(h)[cols.prefix] * cols.prefix_weight
        if np.any(probs <= 0.0):
            return float("-inf")
        terms.extend(math.log(p) for p in probs.tolist())
    return math.fsum(terms)


def theta_min_feasible(model: PsrModel, dataset: DatasetFamily, p_min: float) -> bool:
    """Every recorded prefix keeps probability at least p_min under the model."""
    stable, _ = _SelectionRecord(None, p_min, len(model.stack), model.space.horizon).read(model.stack.prob_table, dataset)
    return bool(stable[model.index])


def oracle_simplex_lattice(dim: int, eps: float) -> list[np.ndarray]:
    """All probability vectors with entries that are multiples of eps."""
    steps = round(1.0 / eps)
    if abs(steps * eps - 1.0) > 1e-9:
        raise StructuralError("eps_grid must divide 1")
    out: list[np.ndarray] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(np.array(prefix + [remaining], dtype=float) / steps)
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], steps, dim)
    return out


def oracle_grid_tables(env: TabularPomdp, eps: float):
    """Cartesian product of per-row lattices over transition and emission rows."""
    t_shape = env.transition.shape
    e_shape = env.emission.shape
    t_rows = int(np.prod(t_shape[:-1])) if env.transition.size else 0
    e_rows = int(np.prod(e_shape[:-1]))
    lattice_t = oracle_simplex_lattice(t_shape[-1], eps) if t_rows else []
    lattice_e = oracle_simplex_lattice(e_shape[-1], eps)
    total = (len(lattice_t) ** t_rows if t_rows else 1) * len(lattice_e) ** e_rows
    if total > MAX_CANDIDATES:
        raise StructuralError(f"grid would have {total} members (cap {MAX_CANDIDATES})")

    def rec(row_choices: list[np.ndarray], row: int):
        if row == t_rows + e_rows:
            flat_t = np.array(row_choices[:t_rows]).reshape(t_shape) if t_rows else env.transition
            flat_e = np.array(row_choices[t_rows:]).reshape(e_shape)
            yield flat_t, flat_e
            return
        lattice = lattice_t if row < t_rows else lattice_e
        for point in lattice:
            yield from rec(row_choices + [point], row + 1)

    yield from rec([], 0)


def oracle_test_probs(env: TabularPomdp, tests, state_step: int) -> np.ndarray:
    """One environment's ``test_probs``, walked as before conversion took a member axis."""
    lengths = {len(t) for t in tests}
    if len(lengths) != 1 or 0 in lengths:
        raise StructuralError(f"tests must share one positive length, got lengths {sorted(lengths)}")
    (length,) = lengths
    if not 1 <= state_step <= env.space.horizon - length + 1:
        raise StructuralError(f"a {length}-step test from step {state_step} runs past the horizon")
    obs = np.array([t.obs for t in tests])
    acts = np.array([t.acts[: length - 1] for t in tests]).reshape(len(tests), length - 1)
    v = env.emission[state_step + length - 2].T[obs[:, -1]]
    for j in range(length - 2, -1, -1):
        step = state_step + j
        moved = (env.transition[step - 1][acts[:, j]] @ v[:, :, None])[:, :, 0]
        v = env.emission[step - 1].T[obs[:, j]] * moved
    return v


def oracle_g_matrices(pomdp: TabularPomdp, m: int) -> GMatrices:
    """Exact window-test probability matrices for every state step."""
    if m < 1:
        raise StructuralError("window length m must be >= 1")
    tests_all = []
    mats = []
    for h in range(1, pomdp.space.horizon + 1):
        tests = tuple(window_tests(pomdp.space, h, m))
        tests_all.append(tests)
        mats.append(oracle_test_probs(pomdp, tests, h))
    return GMatrices(m, tuple(tests_all), tuple(mats))


def _oracle_transition_operator(pomdp: TabularPomdp, h: int, o: int, a: int) -> np.ndarray:
    """Matrix sending the pre-emission state belief at step h to step h+1."""
    emit = pomdp.emission[h - 1, :, o]
    if h < pomdp.space.horizon:
        return pomdp.transition[h - 1, a].T * emit[None, :]
    # No transition after the final observation; condition on it in place.
    return np.diag(emit)


def oracle_model_fault(space, core_tests, psi0, M, phi) -> str | None:
    """The first check one model's parameters fail, as ``PsrModel`` checked its own copies, or None."""
    psi0, M, phi = np.array(psi0), tuple(np.array(ops) for ops in M), tuple(np.array(vec) for vec in phi)
    H, O, A = space.horizon, space.n_obs, space.n_actions
    if len(M) != H or len(phi) != H + 1:
        return "need H observation-action tables and H+1 closing vectors"
    if not np.isfinite(psi0).all():
        return "start vector psi0 has non-finite entries"
    dims = [psi0.shape[0]]
    for h, ops in enumerate(M, start=1):
        if ops.ndim != 4 or ops.shape[0] != O or ops.shape[1] != A:
            return f"M at step {h} must be (O, A, d_h, d_h-1), got {ops.shape}"
        if ops.shape[3] != dims[-1]:
            return f"M at step {h} expects input dim {dims[-1]}, got {ops.shape[3]}"
        if not np.isfinite(ops).all():
            return f"M at step {h} has non-finite entries"
        dims.append(ops.shape[2])
    for h, vec in enumerate(phi):
        if vec.shape != (dims[h],):
            return f"closing vector at step {h} has dim {vec.shape}, expected ({dims[h]},)"
        if not np.isfinite(vec).all():
            return f"closing vector phi at step {h} has non-finite entries"
    for h in range(H):
        if core_tests.d(h) != dims[h]:
            return f"{core_tests.d(h)} core tests at step {h} but state dim {dims[h]}"
    return None


def oracle_check_self_consistency(model) -> float:
    """Largest violation of the closing-vector recursion over steps and actions, one einsum per step of one model."""
    gaps = []
    for h in range(model.space.horizon):
        summed = np.einsum("i,oaij->aj", model.phi[h + 1], model.M[h])
        gaps.append(np.abs(summed - model.phi[h][None, :]).max())
    return float(np.max(gaps, initial=0.0))


def oracle_candidate_fault(models, labels) -> str | None:
    """The error a candidate set raised for models and labels, checking one member at a time, or None."""
    if len(models) != len(labels):
        return "models and labels must align"
    if not models:
        return "candidate set may not be empty"
    first = models[0]
    for label, model in zip(labels, models):
        if model.space != first.space or model.dims != first.dims:
            return (
                f"candidate {label} has space {model.space} and state dims {model.dims}; "
                f"candidate {labels[0]} has {first.space} and {first.dims}"
            )
        worst = oracle_check_self_consistency(model)
        if not worst <= estimation.SELF_CONSISTENCY_TOL:
            return f"candidate {label} violates self-consistency by {worst:.3g}"
    return None


def oracle_decodability_alpha(g: GMatrices) -> float:
    """Smallest S-th singular value over the per-step test matrices, one SVD each."""
    alpha = math.inf
    for G in g.matrices:
        svals = np.linalg.svd(G, compute_uv=False)
        n_states = G.shape[1]
        sigma = svals[n_states - 1] if len(svals) >= n_states else 0.0
        alpha = min(alpha, float(sigma))
    return alpha


def oracle_pomdp_to_psr(pomdp: TabularPomdp, g: GMatrices) -> PsrModel:
    """One environment's PSR, pseudo-inverting each step's test matrix on its own."""
    space = pomdp.space
    gmats = g.matrices
    core = make_core_test_set(space, list(g.tests))
    pinvs = []
    for h, G in enumerate(gmats, start=1):
        svals = np.linalg.svd(G, compute_uv=False)
        smin = svals[pomdp.n_states - 1] if len(svals) >= pomdp.n_states else 0.0
        if smin <= 0 or svals[0] / smin > MAX_CONDITION:
            raise SingularCoreTests(f"test matrix at step {h} has condition > {MAX_CONDITION:g}")
        pinvs.append(np.linalg.pinv(G, rcond=PINV_RCOND))
    M = []
    for h in range(1, space.horizon):
        G_next = gmats[h]  # state step h+1
        ops = np.empty((space.n_obs, space.n_actions, G_next.shape[0], gmats[h - 1].shape[0]))
        for o in range(space.n_obs):
            for a in range(space.n_actions):
                ops[o, a] = G_next @ _oracle_transition_operator(pomdp, h, o, a) @ pinvs[h - 1]
        M.append(ops)
    # Final step: the window tests there are the single next observations, so
    # the last matrices reduce to exact indicator rows (anchored closing).
    d_last = gmats[space.horizon - 1].shape[0]
    terminal = np.zeros((space.n_obs, space.n_actions, 1, d_last))
    for o in range(space.n_obs):
        terminal[o, :, 0, o] = 1.0
    M.append(terminal)
    ones = np.ones(pomdp.n_states)
    phi = [p.T @ ones for p in pinvs[:-1]] + [np.ones(d_last), np.ones(1)]
    e0 = np.zeros(pomdp.n_states)
    e0[pomdp.initial_state] = 1.0
    psi0 = gmats[0] @ e0
    fault = oracle_model_fault(space, core, psi0, M, phi)
    if fault is not None:
        raise StructuralError(fault)
    return model_from_arrays(space, core, psi0, M, phi)


def oracle_default_psr(pomdp: TabularPomdp):
    """PSR via the smallest window whose decodability value exceeds ``ALPHA_FLOOR``."""
    last_alpha = 0.0
    for m in range(1, pomdp.space.horizon + 1):
        g = oracle_g_matrices(pomdp, m)
        last_alpha = oracle_decodability_alpha(g)
        if last_alpha > ALPHA_FLOOR:
            return oracle_pomdp_to_psr(pomdp, g=g), g
    raise SingularCoreTests(f"no decodable window up to m=H (best alpha {last_alpha:.3g})")


def oracle_make_candidates(env, mode, *, seed=0, n=0, scale=0.05, emission_scale=None, eps_grid=0.5, include_true=True):
    """``make_candidates`` converting and validating one member at a time, each through its own environment.

    Returns the members' models and labels, as a candidate set checked them.
    Settings are not checked.  Dithering reads ``estimation._perturbed_rows``
    by attribute, so a test that replaces it changes both paths alike.
    """
    true_model, g_true = oracle_default_psr(env)
    members = [(true_model, "true")] if include_true or mode == "include_true" else []

    def _add(transition: np.ndarray, emission: np.ndarray, label: str) -> bool:
        pomdp = TabularPomdp(env.n_states, env.space, transition, emission, env.initial_state, env.reward)
        try:
            model = oracle_pomdp_to_psr(pomdp, g=oracle_g_matrices(pomdp, g_true.m))
        except (StructuralError, SingularCoreTests):
            return False
        members.append((model, label))
        return True

    if mode == "dithered":
        e_scale = scale if emission_scale is None else emission_scale
        made = 0
        attempt = 0
        while made < n:
            if attempt >= n * MAX_ATTEMPTS_PER_CANDIDATE:
                raise StructuralError("dithering kept failing to produce valid candidates")
            rng = rng_for(seed, "dither", attempt)
            attempt += 1
            transition = env.transition
            if env.transition.size and scale > 0:
                transition = estimation._perturbed_rows(env.transition, scale, rng)
            emission = estimation._perturbed_rows(env.emission, e_scale, rng) if e_scale > 0 else env.emission
            if _add(transition, emission, f"perturbed(seed={seed},i={attempt - 1})"):
                made += 1
    elif mode == "grid":
        for idx, (transition, emission) in enumerate(oracle_grid_tables(env, eps_grid)):
            _add(transition, emission, f"grid({idx})")

    if not members:
        raise EmptyFeasibleSet("candidate generation produced no valid models")
    models, labels = zip(*members)
    fault = oracle_candidate_fault(models, labels)
    if fault is not None:
        raise StructuralError(fault)
    return models, labels
