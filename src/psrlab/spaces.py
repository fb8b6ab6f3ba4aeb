"""Observation/action spaces, histories, and future trajectories (tests).

Enumeration order is fixed everywhere: a step ``(o, a)`` has pair index
``o * n_actions + a`` and sequences are ordered lexicographically with the
earliest step most significant: the order ``product(space.pairs, repeat=h)``
yields.  All exact operations in this package enumerate trajectory trees
whose size is ``(n_obs * n_actions) ** horizon``; the cap below rejects
spaces too large to enumerate.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import EnumerationCapExceeded, StructuralError

DEFAULT_ENUM_CAP = 10_000_000
ENUM_CAP_ENV_VAR = "PSRLAB_ENUM_CAP"
_INTEGERS = (int, np.integer)  # concrete types: an isinstance check on them is cheap per step
_REALS = _INTEGERS + (float, np.floating)


def check_numbers(integers: dict[str, object], reals: dict[str, object]) -> None:
    """Raise ``StructuralError`` unless each integer is an ``int`` and each real an ``int`` or ``float`` (never a ``bool``)."""
    for kinds, kind, values in ((_INTEGERS, "an integer", integers), (_REALS, "a number", reals)):
        for name, value in values.items():
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise StructuralError(f"{name} must be {kind}, got {value!r}")


def _read_only_copy(values) -> np.ndarray:
    """A copy of ``values`` that cannot be written, so nothing cached from it goes stale."""
    copy = np.array(values)
    copy.flags.writeable = False
    return copy


def check_same_space(what: str, a: ObsActSpace, b: ObsActSpace) -> None:
    """Refuse ``what`` on two different spaces with a :class:`StructuralError` naming both."""
    if a is not b and a != b:
        raise StructuralError(f"{what} live on different spaces: {a} and {b}")


def enum_cap() -> int:
    """Trajectory-enumeration cap, overridable via PSRLAB_ENUM_CAP."""
    raw = os.environ.get(ENUM_CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_ENUM_CAP
    try:
        return int(raw)
    except ValueError as exc:
        raise StructuralError(f"{ENUM_CAP_ENV_VAR} must be an integer, got {raw!r}") from exc


@dataclass(frozen=True)
class ObsActSpace:
    """Finite observation/action alphabet over a fixed horizon."""

    n_obs: int
    n_actions: int
    horizon: int

    def __post_init__(self) -> None:
        check_numbers({"n_obs": self.n_obs, "n_actions": self.n_actions, "horizon": self.horizon}, {})
        if self.n_obs < 1 or self.n_actions < 1 or self.horizon < 1:
            raise StructuralError(
                f"space sizes must be >= 1, got O={self.n_obs} A={self.n_actions} H={self.horizon}"
            )
        cap = enum_cap()
        if self.n_trajectories > cap:
            raise EnumerationCapExceeded(
                f"(O*A)^H = {self.n_trajectories} exceeds enumeration cap {cap}"
            )

    @property
    def pair_count(self) -> int:
        return self.n_obs * self.n_actions

    @property
    def n_trajectories(self) -> int:
        return self.pair_count ** self.horizon

    @property
    def pairs(self) -> list[tuple[int, int]]:
        """Every ``(o, a)`` step in pair-index order."""
        return [(o, a) for o in range(self.n_obs) for a in range(self.n_actions)]

    def n_histories(self, h: int) -> int:
        if not 0 <= h <= self.horizon:
            raise StructuralError(f"step {h} outside [0, {self.horizon}]")
        return self.pair_count ** h


@dataclass(frozen=True)
class History:
    """Ordered (obs, action) steps; length 0 is the empty history."""

    steps: tuple[tuple[int, int], ...] = ()

    def __len__(self) -> int:
        return len(self.steps)

    def extend(self, obs: int, action: int) -> "History":
        return History(self.steps + ((obs, action),))

    def validate(self, space: ObsActSpace) -> None:
        """Reject histories longer than the horizon and steps that are not pairs of in-range integers.

        Python and numpy integers are accepted; ``bool`` is not, so ``True`` is never read as 1.
        """
        if len(self.steps) > space.horizon:
            raise StructuralError(f"history length {len(self.steps)} exceeds horizon {space.horizon}")
        n_obs, n_actions = space.n_obs, space.n_actions
        for step in self.steps:
            try:
                o, a = step
            except (TypeError, ValueError) as exc:
                raise StructuralError(f"step {step!r} is not an (obs, action) pair") from exc
            if type(o) is bool or type(a) is bool or not isinstance(o, _INTEGERS) or not isinstance(a, _INTEGERS):
                raise StructuralError(f"step ({o!r}, {a!r}) must hold integers")
            if not (0 <= o < n_obs and 0 <= a < n_actions):
                raise StructuralError(f"step ({o}, {a}) outside space bounds")

    def lex_index(self, space: ObsActSpace) -> int:
        pairs, n_actions = space.pair_count, space.n_actions
        idx = 0
        for o, a in self.steps:
            idx = idx * pairs + (o * n_actions + a)
        return idx


def enumerate_histories(space: ObsActSpace, h: int) -> list[History]:
    """All length-``h`` histories in lexicographic order."""
    space.n_histories(h)  # rejects h outside [0, horizon]
    return [History(steps) for steps in product(space.pairs, repeat=h)]


@dataclass(frozen=True)
class Future:
    """A test: observations (and actions) for steps ``start_step + 1`` onward.

    Two layouts occur.  A *full* future pairs every observation with an
    action.  A *short* test may stop before the horizon and may omit the
    action aligned with its last observation (that action cannot influence
    the test's probability).
    """

    start_step: int
    obs: tuple[int, ...]
    acts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.acts) not in (len(self.obs), len(self.obs) - 1):
            raise StructuralError(
                f"test must carry len(obs) or len(obs)-1 actions, got {len(self.obs)} obs / {len(self.acts)} acts"
            )

    def __len__(self) -> int:
        return len(self.obs)

    def validate(self, space: ObsActSpace) -> None:
        if not 0 <= self.start_step < space.horizon:
            raise StructuralError(f"test start step {self.start_step} outside [0, {space.horizon})")
        if self.start_step + len(self.obs) > space.horizon:
            raise StructuralError("test extends past the horizon")
        if any(not 0 <= o < space.n_obs for o in self.obs):
            raise StructuralError("test observation outside space bounds")
        if any(not 0 <= a < space.n_actions for a in self.acts):
            raise StructuralError("test action outside space bounds")
