import re

import numpy as np
import pytest

from conftest import make_single_state_env
from policy_oracles import action_row, oracle_policy_weight, random_tree_policy, seed_uniforms
from psrlab.errors import StructuralError
from psrlab.policies import (
    CompositePolicy,
    DeterministicTreePolicy,
    UniformActionSeqPolicy,
    action_dtype,
    policy_from_dict,
    policy_weight_vector,
    prefix_weight_tables,
    uniform_policy,
)
from psrlab.planner import plan_on_table
from psrlab.pomdp import tiger
from psrlab.seeding import child_seed
from psrlab.spaces import History, ObsActSpace, enumerate_histories


def table_weight(policy, hist, space=ObsActSpace(2, 2, 2)):
    """The policy's weight of ``hist``, read from its prefix weight table."""
    return list(prefix_weight_tables(policy, space))[len(hist)][hist.lex_index(space)]


def test_deterministic_tree_weight_match_and_mismatch():
    space = ObsActSpace(2, 2, 2)
    policy = random_tree_policy(space, child_seed(0, "tree"))
    hist = History()
    steps = []
    for h in range(2):
        obs = 1
        action = int(np.argmax(action_row(policy, space, hist, obs)))
        hist = hist.extend(obs, action)
        steps.append((obs, action))
    assert table_weight(policy, hist) == 1.0
    wrong = History((steps[0], (steps[1][0], 1 - steps[1][1])))
    assert table_weight(policy, wrong) == 0.0


def test_uniform_action_seq_weight_is_one_third():
    policy = UniformActionSeqPolicy(2, 1, ((0, 0), (0, 1), (1, 0)))
    hist = History(((0, 0), (1, 1)))  # follows (0, 1)
    assert table_weight(policy, hist) == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_uniform_action_seq_padding_weight():
    # One sequence of length 1, horizon 2: second action is uniform padding.
    policy = UniformActionSeqPolicy(2, 1, ((1,),))
    w = table_weight(policy, History(((0, 1), (0, 0))))
    assert w == pytest.approx(0.5, abs=1e-15)
    assert table_weight(policy, History(((0, 0),))) == 0.0


def test_uniform_policy_is_per_step_uniform():
    space = ObsActSpace(2, 3, 2)
    policy = uniform_policy(space)
    for hist in enumerate_histories(space, 2):
        assert table_weight(policy, hist, space) == pytest.approx((1 / 3) ** 2, abs=1e-15)


def test_mixture_conditionals_chain_to_marginals():
    # Product of per-step conditionals equals the mixture weight of the prefix.
    policy = UniformActionSeqPolicy(2, 1, ((), (1,), (1, 0)))
    hist = History(((0, 1), (1, 0)))
    direct = table_weight(policy, hist)
    # enumerate: sigma=() -> (1/3)(1/2)(1/2); (1,) -> (1/3)(1/2); (1,0) -> 1/3
    expected = (1 / 3) * (1 / 4) + (1 / 3) * (1 / 2) + (1 / 3)
    assert direct == pytest.approx(expected, abs=1e-15)


def test_weight_vector_sums_to_one_per_obs_branch():
    space = ObsActSpace(2, 2, 2)
    for policy in (
        uniform_policy(space),
        random_tree_policy(space, child_seed(3, "tree")),
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
    assert action_row(comp, space, History(), 0)[0] == 1.0
    probs = action_row(comp, space, History(((0, 0),)), 1)
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
        random_tree_policy(space, child_seed(1, "tree")),
        UniformActionSeqPolicy(2, 2, ((), (1,))),
    )
    data = policy.to_dict()
    rebuilt = policy_from_dict(data, space)
    for hist in enumerate_histories(space, 2):
        assert table_weight(rebuilt, hist) == table_weight(policy, hist)


def test_sampling_matches_action_row():
    env = make_single_state_env(horizon=3, n_obs=2, n_actions=2, emission_row=[1.0, 0.0])  # first obs is 0
    policy = UniformActionSeqPolicy(2, 1, ((0, 0), (1,)))
    counts = np.zeros(2)
    n = 4000
    for i in range(n):
        lex, _ = env.sample_episode(policy, seed_uniforms(env.space, child_seed(9, "sample", i)))
        counts[lex[1] % env.space.n_actions] += 1  # the first step's pair index is obs * A + action
    probs = action_row(policy, env.space, History(), 0)
    assert np.abs(counts / n - probs).max() < 4 * np.sqrt(0.25 / n)


def test_prefix_weight_tables_equal_per_history_weights():
    space = ObsActSpace(2, 3, 3)
    policies = [
        random_tree_policy(space, child_seed(1, "prefix-tables")),
        UniformActionSeqPolicy(3, 1, ((), (1,), (2, 0))),
        CompositePolicy(
            2, random_tree_policy(space, child_seed(2, "prefix-tables")), UniformActionSeqPolicy(3, 2, ((0, 1),))
        ),
    ]
    for policy in policies:
        tables = list(prefix_weight_tables(policy, space))
        assert len(tables) == space.horizon + 1
        for h, table in enumerate(tables):
            expected = [oracle_policy_weight(policy, hist) for hist in enumerate_histories(space, h)]
            assert np.array_equal(table, expected)
        assert np.array_equal(tables[-1], policy_weight_vector(policy, space))


@pytest.mark.parametrize("n_actions,dtype", [(1, np.uint8), (2, np.uint8), (256, np.uint8), (257, np.uint16)])
def test_tree_policies_store_the_smallest_unsigned_action_type(n_actions, dtype):
    """Checked, planned and random tree policies all hold their tables in one type, the smallest holding A - 1."""
    space = ObsActSpace(1, n_actions, 1)
    assert action_dtype(n_actions) == dtype
    checked = DeterministicTreePolicy(space, (np.array([n_actions - 1]),))
    planned, _ = plan_on_table(space, np.arange(n_actions, dtype=float))  # the last action is best
    drawn = random_tree_policy(space, child_seed(n_actions, "storage-type"))
    for policy in (checked, planned, drawn):
        (table,) = policy.actions_by_step
        assert table.dtype == dtype and not table.flags.writeable
    assert checked.actions_by_step[0].tolist() == planned.actions_by_step[0].tolist() == [n_actions - 1]


BAD_TABLES = {
    "-1": np.array([0, 1, -1, 0, 1, 1, 0, 0]),
    "2": np.array([0, 1, 2, 0, 1, 1, 0, 0]),
    "256 as uint16": np.array([0, 1, 256, 0, 1, 1, 0, 0], dtype=np.uint16),  # would wrap to 0 in uint8
    "300": np.array([0, 1, 300, 0, 1, 1, 0, 0]),
    "bool": np.array([False, True] * 4),
    "float": np.array([0.0, 1.0] * 4),
}


@pytest.mark.parametrize("bad", list(BAD_TABLES))
def test_tree_policy_rejects_out_of_range_actions(bad):
    """The public constructor and the dict loader through it check every table's kind and range on
    the input, before a tree policy converts it to the storage type, where 256 or 300 would wrap into
    range."""
    space = ObsActSpace(2, 2, 2)
    tables = (np.zeros(2, dtype=np.int64), BAD_TABLES[bad])
    with pytest.raises(StructuralError, match=r"need integers in \[0, 2\)"):
        DeterministicTreePolicy(space, tables)
    with pytest.raises(StructuralError, match=r"need integers in \[0, 2\)"):
        policy_from_dict({"type": "deterministic_tree", "actions": [t.tolist() for t in tables]}, space)


def test_tree_policy_json_is_unchanged_by_the_storage_type(tmp_path):
    """``to_dict`` gives plain ints, so a stored policy writes the bytes its int64 tables wrote."""
    from psrlab.cli import _write_json

    space = ObsActSpace(2, 3, 3)
    planned, _ = plan_on_table(space, np.random.default_rng(3).random(space.n_trajectories))
    actions = [[int(a) for a in table] for table in planned.actions_by_step]
    wide = DeterministicTreePolicy(space, tuple(np.array(table, dtype=np.int64) for table in actions))
    assert planned.to_dict() == wide.to_dict() == {"type": "deterministic_tree", "actions": actions}
    assert all(type(a) is int for table in planned.to_dict()["actions"] for a in table)
    _write_json(tmp_path / "stored.json", planned.to_dict())
    _write_json(tmp_path / "plain.json", {"type": "deterministic_tree", "actions": actions})
    assert (tmp_path / "stored.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    assert policy_from_dict(planned.to_dict(), space).to_dict() == planned.to_dict()


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


def test_tree_policy_tables_are_read_only():
    space = tiger(2).space
    policy = random_tree_policy(space, child_seed(0, "frozen-tree"))
    before = policy_weight_vector(policy, space)
    with pytest.raises(ValueError):
        policy.actions_by_step[0][:] = 7
    assert np.array_equal(policy_weight_vector(policy, space), before)
    given = tuple(np.zeros(space.n_histories(h) * space.n_obs, dtype=np.int64) for h in range(space.horizon))
    copied = DeterministicTreePolicy(space, given)
    given[0][:] = 1  # the caller's array stays writeable, and the policy does not see the write
    assert not copied.actions_by_step[0].any() and given[0].flags.writeable
    planned, _ = plan_on_table(space, np.arange(space.n_trajectories, dtype=float))
    with pytest.raises(ValueError):
        planned.actions_by_step[-1][0] = 0


@pytest.mark.parametrize(
    "data,message",
    [
        ({"type": "deterministic_tree"}, "missing key 'actions'"),
        ({"type": "deterministic_tree", "actions": [["x", 0], [0] * 8]}, "need integers"),
        ({"type": "uniform_action_seq", "sequences": [[True]]}, "'sequences'"),
        ({"type": "uniform_action_seq", "sequences": [[]], "n_actions": "2"}, "'n_actions'"),
        ({"type": "uniform_action_seq", "sequences": [[]], "start_step": 0}, "start step"),
        ({"type": "uniform_action_seq", "sequences": 5}, "uniform_action_seq"),
        ({"type": "composite", "prefix": {}, "suffix": {}}, "missing key 'switch_step'"),
        ({"type": "mystery"}, "'mystery'"),
    ],
)
def test_policy_from_dict_names_the_missing_key_or_bad_entry(data, message):
    with pytest.raises(StructuralError, match=message):
        policy_from_dict(data, ObsActSpace(2, 2, 2))


def test_policy_from_dict_defaults_to_the_space_and_the_first_step():
    space = ObsActSpace(2, 3, 2)
    got = policy_from_dict({"type": "uniform_action_seq", "sequences": [[], [2]]}, space)
    assert got == UniformActionSeqPolicy(3, 1, ((), (2,)))


@pytest.mark.parametrize("space", [ObsActSpace(3, 2, 3), ObsActSpace(2, 2, 2)], ids=str)
def test_a_tree_policy_on_another_space_is_refused(space):
    """A tree policy's tables are indexed by nodes of its own tree, so every reader on another space
    refuses it by name, where a deeper tree gave silent values and a narrower one an IndexError."""
    from psrlab.offline import coverage_coefficient
    from psrlab.planner import policy_value_on_table
    from psrlab.pomdp import default_psr
    from psrlab.psr import tv_distance
    from psrlab.verify import reference_env

    env = reference_env()
    model, _ = default_psr(env)
    policy = random_tree_policy(space, 1)
    readers = {
        "coverage_coefficient": lambda: coverage_coefficient(env, policy, uniform_policy(env.space)),
        "policy_value_on_table": lambda: policy_value_on_table(env.space, policy, np.ones(env.space.n_trajectories)),
        "sample_episodes": lambda: env.sample_episodes(policy, [1, 2]),
        "sample_episode": lambda: env.sample_episode(policy, [0.5] * 5),
        "policy_weight_vector": lambda: policy_weight_vector(policy, env.space),
        "tv_distance": lambda: tv_distance(model, model, policy),
    }
    message = f"^tree policy and its reader live on different spaces: {re.escape(str(space))} and {re.escape(str(env.space))}$"
    for name, read in readers.items():
        with pytest.raises(StructuralError, match=message):
            read()
