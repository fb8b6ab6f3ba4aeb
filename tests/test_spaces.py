import numpy as np
import pytest
from hypothesis import given, strategies as st

from pomdp_oracles import LEX_ORDER_SPACES, enumerate_futures, future_from_lex, history_from_lex, is_full, python_int_steps
from psrlab.errors import EnumerationCapExceeded, StructuralError
from psrlab.spaces import Future, History, ObsActSpace, enumerate_histories


def test_space_rejects_nonpositive_sizes():
    with pytest.raises(StructuralError):
        ObsActSpace(0, 2, 2)
    with pytest.raises(StructuralError):
        ObsActSpace(2, 2, 0)


@pytest.mark.parametrize("sizes", [(True, 2, 2), (2, "2", 2), (2, 2, 2.0)])
def test_space_sizes_must_be_integers(sizes):
    with pytest.raises(StructuralError, match="must be an integer"):
        ObsActSpace(*sizes)


def test_space_rejects_oversized_tree(monkeypatch):
    monkeypatch.setenv("PSRLAB_ENUM_CAP", "100")
    with pytest.raises(EnumerationCapExceeded):
        ObsActSpace(4, 4, 4)
    ObsActSpace(2, 2, 3)  # 64 <= 100


def test_cap_env_var_must_be_integer(monkeypatch):
    monkeypatch.setenv("PSRLAB_ENUM_CAP", "banana")
    with pytest.raises(StructuralError):
        ObsActSpace(2, 2, 2)


@given(st.integers(0, 3), st.data())
def test_history_lex_round_trip(h, data):
    space = ObsActSpace(3, 2, 4)
    idx = data.draw(st.integers(0, space.n_histories(h) - 1))
    hist = history_from_lex(space, h, idx)
    assert len(hist) == h
    assert hist.lex_index(space) == idx


def test_enumeration_is_lexicographic():
    space = ObsActSpace(2, 2, 2)
    hists = enumerate_histories(space, 2)
    assert hists[0].steps == ((0, 0), (0, 0))
    assert hists[1].steps == ((0, 0), (0, 1))
    assert hists[-1].steps == ((1, 1), (1, 1))
    assert len(hists) == 16


@pytest.mark.parametrize("sizes", LEX_ORDER_SPACES)
def test_enumeration_matches_the_decode(sizes):
    space = ObsActSpace(*sizes)
    for h in range(space.horizon + 1):
        hists = enumerate_histories(space, h)
        assert hists == [history_from_lex(space, h, i) for i in range(space.n_histories(h))]
        assert python_int_steps(hists)
    with pytest.raises(StructuralError):
        enumerate_histories(space, space.horizon + 1)


def test_history_validation_bounds():
    space = ObsActSpace(2, 2, 2)
    with pytest.raises(StructuralError):
        History(((2, 0),)).validate(space)
    with pytest.raises(StructuralError):
        History(((0, 0),) * 3).validate(space)
    History(((1, 1), (0, 0))).validate(space)


@pytest.mark.parametrize("step", [(1.0, 0), (0, 1.0), (0, True), (False, 0), (np.bool_(True), 0), ("0", 0)])
def test_history_validation_rejects_non_integer_steps(step):
    with pytest.raises(StructuralError, match="integers"):
        History(((0, 0), step)).validate(ObsActSpace(2, 2, 2))


@pytest.mark.parametrize("step", [(1,), (0, 0, 0), 7])
def test_history_validation_rejects_steps_that_are_not_pairs(step):
    with pytest.raises(StructuralError, match="pair"):
        History(((0, 0), step)).validate(ObsActSpace(2, 2, 2))


def test_history_validation_accepts_numpy_integers():
    rows = np.array([[1, 0], [0, 1]])
    History(tuple((o, a) for o, a in rows)).validate(ObsActSpace(2, 2, 2))
    History(((np.int32(1), np.uint8(1)),)).validate(ObsActSpace(2, 2, 2))


def test_prefix_and_extend():
    """A prefix is a slice of the steps; extending it by the next step gives back the history."""
    hist = History(((0, 1), (1, 0)))
    assert History(hist.steps[:1]).extend(1, 0) == hist
    assert hist.extend(1, 1).steps == ((0, 1), (1, 0), (1, 1))
    assert len(hist.extend(1, 1)) == 3 and len(History()) == 0


def test_future_action_count_rule():
    Future(0, (1, 0), (1,))  # short test: one fewer action
    Future(0, (1, 0), (1, 0))  # full pairing
    with pytest.raises(StructuralError):
        Future(0, (1, 0), ())


def test_future_validate():
    space = ObsActSpace(2, 2, 3)
    fut = future_from_lex(space, 1, 5)
    fut.validate(space)
    assert len(fut) == 2


def test_enumerate_futures_count():
    space = ObsActSpace(2, 2, 2)
    futs = enumerate_futures(space, 1)
    assert len(futs) == 4
    assert all(is_full(f) for f in futs)
    assert futs[0].obs == (0,) and futs[0].acts == (0,)
