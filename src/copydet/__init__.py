"""Desk-scale copy-detection descriptor toolkit.

Synthetic worlds, staged contrastive training with a cross-batch memory
bank, exact top-k matching, nearest-negative subtraction post-processing,
and a micro-AP / recall-at-precision evaluation harness.
"""

from .datagen import (
    TIERS,
    AugmentTier,
    SyntheticWorld,
    WorldConfig,
    augment_batch,
    gen_world,
    get_tier,
    load_world,
    substream,
    write_world,
)
from .embedding import EmbeddingSet, normalize, read_embeddings, write_embeddings
from .errors import (
    CopyDetError,
    DimMismatch,
    EmptyBatch,
    EmptyGroundTruth,
    FormatError,
    NonFiniteValue,
    ShapeMismatch,
    ZeroVector,
)
from .metrics import (
    GroundTruth,
    RankedMatches,
    build_candidates,
    evaluate,
    micro_ap,
    read_gt_csv,
    read_matches_tsv,
    recall_at_precision,
    write_matches_tsv,
)
from .pipeline import (
    TOOL_VERSION,
    RunManifest,
    negative_swap,
    reproduce_trend,
    swap_report,
    train_and_embed,
    trend_report,
)
from .postprocess import NegSubConfig, subtract_negatives, subtract_negatives_batch
from .search import topk, topk_batch
from .train import (
    Encoder,
    LossConfig,
    MemoryBank,
    StageConfig,
    contrastive_loss,
    default_stage_schedule,
    encoder_loss_and_grads,
    run_stage,
    sgd_momentum_step,
)

__version__ = TOOL_VERSION

__all__ = [
    "AugmentTier",
    "CopyDetError",
    "DimMismatch",
    "EmbeddingSet",
    "EmptyBatch",
    "EmptyGroundTruth",
    "Encoder",
    "FormatError",
    "GroundTruth",
    "LossConfig",
    "MemoryBank",
    "NegSubConfig",
    "NonFiniteValue",
    "RankedMatches",
    "RunManifest",
    "ShapeMismatch",
    "StageConfig",
    "SyntheticWorld",
    "TIERS",
    "TOOL_VERSION",
    "WorldConfig",
    "ZeroVector",
    "augment_batch",
    "build_candidates",
    "contrastive_loss",
    "default_stage_schedule",
    "encoder_loss_and_grads",
    "evaluate",
    "gen_world",
    "get_tier",
    "load_world",
    "micro_ap",
    "negative_swap",
    "normalize",
    "read_embeddings",
    "read_gt_csv",
    "read_matches_tsv",
    "recall_at_precision",
    "reproduce_trend",
    "run_stage",
    "sgd_momentum_step",
    "substream",
    "subtract_negatives",
    "subtract_negatives_batch",
    "swap_report",
    "topk",
    "topk_batch",
    "train_and_embed",
    "trend_report",
    "write_embeddings",
    "write_matches_tsv",
    "write_world",
]
