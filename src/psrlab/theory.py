"""Scaling rules that turn instance constants into algorithm parameters.

The literal finite-class constants are astronomically conservative on desk
instances, so every derived parameter carries the multiplicative knob
``c_theory``; resolved values are echoed into every run record.

Formulas (``mode="online"``, with instance constants r, d, Q (max core
action sequences), gamma, A = n_actions, O = n_obs, H, target accuracy
``epsilon`` and confidence ``delta``):

    p_min  = c * delta / (K * H * (O A)^H)
    eps_net = delta / (K^2 H^2 (O A)^H)
    log_net = 2 r^2 O A H^2 * log(O A / eps_net)
    beta   = c * 31 * (log(K / delta) + log_net)
    lambda = gamma A^2 Q beta max{sqrt(r), Q sqrt(H)/gamma} / sqrt(d H)
    alpha  = Q sqrt(H d) sqrt(lambda) / gamma^2 + A Q sqrt(beta) / gamma

Offline mode replaces the last two with coverage- and exploration-aware
versions:

    lambda = gamma C beta max{sqrt(r), Q sqrt(H)/gamma} / (iota^2 Q sqrt(d H))
    alpha  = Q sqrt(d H) sqrt(lambda) / gamma^2 + sqrt(beta) / (iota gamma)

``beta`` and ``p_min`` are linear in ``c_theory``; lambda follows beta and
alpha follows their roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import StructuralError
from .psr import PsrModel, gamma as psr_gamma
from .spaces import check_numbers


@dataclass(frozen=True)
class EnvSummary:
    """Instance constants the parameter formulas consume."""

    rank: int
    dim: int
    q_a: int
    gamma: float
    n_obs: int
    n_actions: int
    horizon: int

    @classmethod
    def from_model(cls, model: PsrModel, rank: int) -> "EnvSummary":
        return cls(
            rank=rank,
            dim=model.max_dim,
            q_a=model.core_tests.max_action_seqs,
            gamma=psr_gamma(model),
            n_obs=model.space.n_obs,
            n_actions=model.space.n_actions,
            horizon=model.space.horizon,
        )


@dataclass(frozen=True)
class ResolvedParams:
    p_min: float
    beta: float
    lam: float
    alpha: float
    eps_net: float
    log_net: float
    c_theory: float
    mode: str

    def to_dict(self) -> dict:
        return {
            "p_min": self.p_min,
            "beta": self.beta,
            "lambda": self.lam,
            "alpha": self.alpha,
            "eps_net": self.eps_net,
            "log_net": self.log_net,
            "c_theory": self.c_theory,
            "mode": self.mode,
        }


def resolve_theory_params(
    summary: EnvSummary,
    *,
    delta: float,
    c_theory: float,
    mode: str,
    n_episodes: int,
    coverage: float | None = None,
    iota: float | None = None,
) -> ResolvedParams:
    """Evaluate the parameter formulas for one instance.

    ``n_episodes`` is the iteration budget online and the dataset size
    offline.  Offline mode additionally needs the coverage coefficient of
    the intended comparator and the minimum exploration probability.
    """
    check_numbers({"n_episodes": n_episodes}, {"delta": delta, "c_theory": c_theory})
    if c_theory <= 0:
        raise StructuralError("c_theory must be positive (lambda > 0 required)")
    if not 0 < delta < 1:
        raise StructuralError("delta must lie in (0, 1)")
    if n_episodes < 1:
        raise StructuralError("need a positive episode budget")
    r, d, q = summary.rank, summary.dim, summary.q_a
    g = summary.gamma
    O, A, H = summary.n_obs, summary.n_actions, summary.horizon
    K = n_episodes
    oa_pow = float(O * A) ** H
    p_min = c_theory * delta / (K * H * oa_pow)
    eps_net = delta / (K * K * H * H * oa_pow)
    log_net = 2.0 * r * r * O * A * H * H * math.log(O * A / eps_net)
    beta = c_theory * 31.0 * (math.log(K / delta) + log_net)
    stiffness = max(math.sqrt(r), q * math.sqrt(H) / g)
    if mode == "online":
        lam = g * A * A * q * beta * stiffness / math.sqrt(d * H)
        alpha = q * math.sqrt(H * d) * math.sqrt(lam) / (g * g) + A * q * math.sqrt(beta) / g
    elif mode == "offline":
        if coverage is None or iota is None:
            raise StructuralError("offline mode needs coverage and iota")
        check_numbers({}, {"coverage": coverage})
        if not math.isfinite(coverage) or coverage <= 0:
            raise StructuralError("coverage must be finite and positive")
        if iota <= 0:
            raise StructuralError("behavior policy must reach every exploration sequence")
        lam = g * coverage * beta * stiffness / (iota * iota * q * math.sqrt(d * H))
        alpha = q * math.sqrt(d * H) * math.sqrt(lam) / (g * g) + math.sqrt(beta) / (iota * g)
    else:
        raise StructuralError(f"unknown mode {mode!r}")
    return ResolvedParams(p_min, beta, lam, alpha, eps_net, log_net, c_theory, mode)
