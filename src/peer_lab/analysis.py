"""Parameter and compute accounting, expert-usage metrics, and the
granularity-aware scaling-law evaluator.

Conventions: compute is counted in multiply-accumulates (MACs). Per-token
layer costs count parameter-touching MACs only, so they are independent of
sequence length; full training-step budgets additionally include the
attention score/value products and a backward multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import MacMeter, Tensor

# forward + backward costs roughly 3x the forward parameter MACs
TRAIN_STEP_MULTIPLIER = 3


# ---------------------------------------------------------------------------
# Parameter counts
# ---------------------------------------------------------------------------


@dataclass
class ParamCounts:
    total: int  # every number serialized for the layer (params + BN stats)
    active: int  # parameters touched per token
    expert: int  # parameters of a single expert / memory slot
    granularity: float  # active / expert


# ---------------------------------------------------------------------------
# Per-token MACs
# ---------------------------------------------------------------------------


def mac_per_token(cfg) -> int:
    """Parameter-touching multiply-accumulates per token for one layer."""
    return cfg.mac_per_token()


def measured_mac_per_token(layer, n_tokens: int = 64, seed: int = 0) -> int:
    """Instrument a live forward pass and return its exact MACs per token.

    Counts what actually executes (projections, retrieval, expert/value
    contractions); must equal mac_per_token for the layer's config at any
    token count.
    """
    d_model = layer.config.d_model
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(n_tokens, d_model)))
    with MacMeter() as meter:
        layer.forward(x, mode="infer")
    if meter.total % n_tokens != 0:
        raise ValueError(f"measured MACs {meter.total} not divisible by {n_tokens} tokens")
    return meter.total // n_tokens


def model_param_macs_per_token(model_cfg) -> int:
    """Parameter MACs per token for the whole model (sequence-independent)."""
    d = model_cfg.d_model
    total = d * model_cfg.vocab  # output head
    for i in range(model_cfg.n_blocks):
        total += 4 * d * d + model_cfg.ffw_config(i).mac_per_token()  # q, k, v, output projections; FFW
    return total


def model_train_step_macs(model_cfg, batch: int) -> int:
    """Full training-step budget: parameter MACs plus attention score/value
    products, times the forward+backward multiplier, times tokens per step.
    """
    t = model_cfg.seq_len
    attention_extra = model_cfg.n_blocks * 2 * t * model_cfg.d_model  # per token
    per_token = model_param_macs_per_token(model_cfg) + attention_extra
    return TRAIN_STEP_MULTIPLIER * per_token * batch * t


# ---------------------------------------------------------------------------
# Expert-usage metrics
# ---------------------------------------------------------------------------


@dataclass
class UsageAccumulator:
    """Accumulated router mass per expert across a token stream."""

    z_prime: np.ndarray  # float64 [n_experts], entries >= 0
    token_count: int = 0

    @classmethod
    def create(cls, n_experts: int) -> "UsageAccumulator":
        return cls(z_prime=np.zeros(n_experts, dtype=np.float64))

    def accumulate(self, indices, weights, tokens: int = 0) -> None:
        indices = np.asarray(indices).ravel()
        weights = np.asarray(weights, dtype=np.float64).ravel()
        if indices.shape != weights.shape:
            raise ValueError(f"indices and weights disagree: {indices.shape} vs {weights.shape}")
        if indices.size and (indices.min() < 0 or indices.max() >= self.z_prime.shape[0]):
            raise IndexError(f"expert id out of range [0, {self.z_prime.shape[0]})")
        if weights.size and weights.min() < 0.0:
            raise ValueError("router mass must be non-negative")
        np.add.at(self.z_prime, indices, weights)
        self.token_count += int(tokens)


def expert_usage_metrics(acc: UsageAccumulator) -> tuple[float, float]:
    """(usage, unevenness): fraction of experts ever retrieved, and the KL
    divergence of z = z' / ||z'||_1 from uniform: log N + sum_i z_i log z_i
    (0 log 0 taken as 0).
    """
    z_prime = acc.z_prime
    total = z_prime.sum()
    if total <= 0.0:
        raise ValueError("usage metrics are undefined for an all-zero accumulator")
    n = z_prime.shape[0]
    nonzero = z_prime > 0
    usage = float(np.count_nonzero(z_prime)) / n
    z = z_prime[nonzero] / total
    unevenness = math.log(n) + float((z * np.log(z)).sum())
    return usage, unevenness


# ---------------------------------------------------------------------------
# Scaling-law evaluation
# ---------------------------------------------------------------------------


@dataclass
class ScalingLawParams:
    """User-supplied constants of the granularity-aware loss law."""

    a: float
    b: float
    g: float
    gamma: float
    alpha: float
    beta: float
    c: float

    def __post_init__(self):
        if self.alpha <= 0 or self.beta <= 0 or self.gamma <= 0:
            raise ValueError("alpha, beta, and gamma must be positive")


def evaluate_scaling_law(params: ScalingLawParams, total_params: float, tokens: float, granularity: float) -> float:
    """Predicted loss: c + (g / G^gamma + a) / P^alpha + b / D^beta."""
    p, d, g_ = total_params, tokens, granularity
    if p <= 0 or d <= 0 or g_ <= 0:
        raise ValueError(f"total_params, tokens, granularity must be positive, got {p}, {d}, {g_}")
    return params.c + (params.g / g_**params.gamma + params.a) / p**params.alpha + params.b / d**params.beta
