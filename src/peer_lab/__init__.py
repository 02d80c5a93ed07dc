"""Product-key routed mixture of single-neuron experts, baselines, and a
byte-level language-model harness with compute accounting."""

from .tensor import BNState, MacMeter, Tape, Tensor, grad_check, top_k
from .product_keys import (
    ProductKeyIndex,
    RetrievalResult,
    build_index,
    retrieve_exhaustive,
    retrieve_topk,
    retrieve_topk_batch,
)
from .peer import (
    ExpertStore,
    PeerConfig,
    PeerLayer,
    PeerRouting,
    assemble_dense_equivalent,
    peer_backward,
    peer_forward,
    record_usage,
)
from .baselines import (
    DenseConfig,
    DenseFFW,
    MoeConfig,
    MoeLayer,
    PkmConfig,
    PkmLayer,
    dense_forward,
    moe_forward,
    pkm_forward,
)
from .analysis import (
    ParamCounts,
    ScalingLawParams,
    UsageAccumulator,
    evaluate_scaling_law,
    expert_usage_metrics,
    mac_per_token,
    param_counts,
)
from .data import Corpus, synthetic_text
from .model import Model, ModelConfig, build_model
from .train import TrainConfig, TrainState, evaluate_perplexity, train

__all__ = [
    "BNState",
    "MacMeter",
    "Tape",
    "Tensor",
    "grad_check",
    "top_k",
    "ProductKeyIndex",
    "RetrievalResult",
    "build_index",
    "retrieve_exhaustive",
    "retrieve_topk",
    "retrieve_topk_batch",
    "ExpertStore",
    "PeerConfig",
    "PeerLayer",
    "PeerRouting",
    "assemble_dense_equivalent",
    "peer_backward",
    "peer_forward",
    "record_usage",
    "DenseConfig",
    "DenseFFW",
    "MoeConfig",
    "MoeLayer",
    "PkmConfig",
    "PkmLayer",
    "dense_forward",
    "moe_forward",
    "pkm_forward",
    "ParamCounts",
    "ScalingLawParams",
    "UsageAccumulator",
    "evaluate_scaling_law",
    "expert_usage_metrics",
    "mac_per_token",
    "param_counts",
    "Corpus",
    "synthetic_text",
    "Model",
    "ModelConfig",
    "build_model",
    "TrainConfig",
    "TrainState",
    "evaluate_perplexity",
    "train",
]
