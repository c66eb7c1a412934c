"""End-to-end seeded runs: world generation, staged training, evaluation.

A run manifest fully determines a run; all randomness flows from its one
seed through named sub-streams (world, train, eval), so any component can
be re-run in isolation. Reports embed the manifest hash: equal hashes mean
byte-identical reports.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

from .datagen import SyntheticWorld, WorldConfig, gen_world, substream, twin_pool, write_world
from .embedding import EmbeddingSet, write_bytes_atomic, write_embeddings
from .errors import check_at_least
from .metrics import build_candidates, evaluate
from .postprocess import NegSubConfig, subtract_negatives_batch
from .train import (
    Encoder,
    LossConfig,
    MemoryBank,
    StageConfig,
    config_from_dict,
    default_stage_schedule,
    run_stage,
)

TOOL_VERSION = "0.1.0"

POSTPROCESS_TARGETS = ("queries", "references", "both")


@dataclass
class RunManifest:
    """Everything that determines a run, serialized beside its outputs."""

    seed: int
    out_dir: str
    n_train: int = WorldConfig.n_train
    n_ref: int = WorldConfig.n_ref
    n_query: int = WorldConfig.n_query
    d_in: int = WorldConfig.d_in
    copy_rate: float = WorldConfig.copy_rate
    world_tier: str = WorldConfig.tier
    encoder_dim: int = 32
    encoder_hidden: int = 0
    bank_capacity: int = 2048
    pos_margin: float = LossConfig.pos_margin
    neg_margin: float = LossConfig.neg_margin
    momentum: float = 0.9
    stages: list[StageConfig] = field(default_factory=default_stage_schedule)
    negsub_n: int = NegSubConfig.n
    negsub_k: int = NegSubConfig.k
    negsub_beta: float = NegSubConfig.beta
    postprocess_targets: str = "both"
    per_query_k: int = 10
    tool_version: str = TOOL_VERSION

    def __post_init__(self) -> None:
        # Settings are checked here, so a bad one fails before any world is drawn.
        if self.postprocess_targets not in POSTPROCESS_TARGETS:
            raise ValueError(
                f"postprocess_targets must be one of {POSTPROCESS_TARGETS}"
            )
        if self.world_config().n_copy == 0:
            # micro_ap is undefined without a true pair.
            raise ValueError(
                f"copy_rate {self.copy_rate} of n_query {self.n_query} gives 0 copy queries; a run needs at least 1"
            )
        for name, low in (("seed", 0), ("encoder_dim", 1), ("per_query_k", 1), ("encoder_hidden", 0),
                          ("bank_capacity", 0), ("momentum", 0)):
            check_at_least(name, getattr(self, name), low)
        self.loss_config()
        self.negsub_config()
        self.stages = [
            s if isinstance(s, StageConfig) else StageConfig.from_dict(s)
            for s in self.stages
        ]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return render_report_json(self.to_dict())

    @classmethod
    def from_dict(cls, d: dict) -> "RunManifest":
        return config_from_dict(cls, d, "manifest")

    def hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def world_config(self) -> WorldConfig:
        return WorldConfig(n_train=self.n_train, n_ref=self.n_ref, n_query=self.n_query, d_in=self.d_in,
                           copy_rate=self.copy_rate, tier=self.world_tier)

    def negsub_config(self) -> NegSubConfig:
        return NegSubConfig(n=self.negsub_n, k=self.negsub_k, beta=self.negsub_beta)

    def loss_config(self) -> LossConfig:
        return LossConfig(pos_margin=self.pos_margin, neg_margin=self.neg_margin)


@dataclass
class TrainedRun:
    """Intermediate state shared by the trend and swap commands."""

    world: SyntheticWorld
    encoder: Encoder
    query_emb: EmbeddingSet
    ref_emb: EmbeddingSet
    train_emb: EmbeddingSet
    stage_rows: list[dict]


def train_encoder(
    world: SyntheticWorld, manifest: RunManifest,
    after_stage: Callable[[Encoder, StageConfig, dict], None] | None = None,
) -> tuple[Encoder, list[dict]]:
    """The one stage loop: train a fresh encoder on ``world`` as ``manifest``
    says, seeded from its "train" stream.

    Returns it and each stage's :func:`run_stage` metrics; ``after_stage``,
    when given, sees it after every stage."""
    rng = substream(manifest.seed, "train")
    encoder = Encoder.init(world.dim, manifest.encoder_dim, manifest.encoder_hidden, rng=rng)
    bank = MemoryBank(manifest.bank_capacity, manifest.encoder_dim)
    loss_cfg = manifest.loss_config()
    metrics: list[dict] = []
    for stage in manifest.stages:
        metrics.append(run_stage(encoder, world, stage, bank, rng, loss_cfg, manifest.momentum))
        if after_stage is not None:
            after_stage(encoder, stage, metrics[-1])
    return encoder, metrics


def train_and_embed(manifest: RunManifest) -> TrainedRun:
    """World generation plus the staged schedule, evaluating after each stage."""
    world = gen_world(manifest.seed, manifest.world_config())
    stage_rows: list[dict] = []

    def evaluate_stage(encoder, stage, stage_metrics):
        queries, refs = encoder.encode_set(world.queries), encoder.encode_set(world.reference)
        stage_rows.append(
            {
                "stage": stage.index,
                "augmentation": stage.tier,
                "trained_with_reference": stage.include_reference_negatives,
                "trained_with_gt": stage.include_gt_positives,
                "post_process": False,
                **evaluate(build_candidates(queries, refs, manifest.per_query_k), world.gt),
                "mean_loss": stage_metrics["mean_loss"],
            }
        )

    encoder, _ = train_encoder(world, manifest, evaluate_stage)
    query_emb = encoder.encode_set(world.queries)
    ref_emb = encoder.encode_set(world.reference)
    train_emb = encoder.encode_set(world.training)
    return TrainedRun(world, encoder, query_emb, ref_emb, train_emb, stage_rows)


def _postprocess_eval(
    run: TrainedRun, negatives: EmbeddingSet, manifest: RunManifest
) -> tuple[dict, EmbeddingSet, EmbeddingSet]:
    cfg = manifest.negsub_config()
    queries, refs = run.query_emb, run.ref_emb
    if manifest.postprocess_targets in ("queries", "both"):
        queries = subtract_negatives_batch(queries, negatives, cfg)
    if manifest.postprocess_targets in ("references", "both"):
        refs = subtract_negatives_batch(refs, negatives, cfg)
    return evaluate(build_candidates(queries, refs, manifest.per_query_k), run.world.gt), queries, refs


def reproduce_trend(manifest: RunManifest) -> dict:
    """Full staged run plus the subtraction post-process, with artifacts.

    Writes the world, encoder checkpoint, descriptor files, manifest, and
    both report forms under ``manifest.out_dir``; returns the report.
    """
    Path(manifest.out_dir).mkdir(parents=True, exist_ok=True)
    return trend_report(train_and_embed(manifest), manifest)


def trend_report(run: TrainedRun, manifest: RunManifest) -> dict:
    """The reproduce-trend report and artifacts of an already trained run.

    ``run`` must come from :func:`train_and_embed` of a manifest that
    differs from ``manifest`` at most in ``out_dir``.
    """
    post, post_q, post_r = _postprocess_eval(run, run.train_emb, manifest)

    last = run.stage_rows[-1] if run.stage_rows else {
        "augmentation": None, "trained_with_reference": False, "trained_with_gt": False,
    }
    rows = run.stage_rows + [
        {
            "stage": "post",
            "augmentation": last["augmentation"],
            "trained_with_reference": last["trained_with_reference"],
            "trained_with_gt": last["trained_with_gt"],
            "post_process": True,
            **post,
        }
    ]
    out = Path(manifest.out_dir)
    emb_dir = out / "embeddings"
    emb_dir.mkdir(parents=True, exist_ok=True)
    write_world(run.world, out / "world")
    run.encoder.save(out / "encoder.bin")
    write_embeddings(run.train_emb, emb_dir / "training.emb")
    write_embeddings(run.ref_emb, emb_dir / "reference.emb")
    write_embeddings(run.query_emb, emb_dir / "queries.emb")
    # The descriptors the post row ranked, whether or not its targets include them.
    write_embeddings(post_q, emb_dir / "queries_post.emb")
    write_embeddings(post_r, emb_dir / "reference_post.emb")
    report = _write_report("reproduce-trend", run, manifest, rows=rows)
    write_bytes_atomic(out / "report.txt", format_trend_table(report).encode("utf-8"))
    return report


def negative_swap(manifest: RunManifest) -> dict:
    """Compare the post-process with the training pool against a disjoint twin pool.

    The twin pool is a fresh draw from the same distribution as the
    training set, never seen during training; everything else is shared.
    """
    Path(manifest.out_dir).mkdir(parents=True, exist_ok=True)
    return swap_report(train_and_embed(manifest), manifest)


def swap_report(run: TrainedRun, manifest: RunManifest) -> dict:
    """The negative-swap report of an already trained run, as for
    :func:`trend_report`."""
    baseline = evaluate(build_candidates(run.query_emb, run.ref_emb, manifest.per_query_k), run.world.gt)
    training, _, _ = _postprocess_eval(run, run.train_emb, manifest)
    twin_emb = run.encoder.encode_set(twin_pool(manifest.seed, manifest.world_config()))
    twin, _, _ = _postprocess_eval(run, twin_emb, manifest)
    return _write_report(
        "negative-swap", run, manifest,
        baseline=baseline,
        training_pool=training,
        twin_pool=twin,
        pool_delta_micro_ap=training["micro_ap"] - twin["micro_ap"],
        postprocess_gain_micro_ap=training["micro_ap"] - baseline["micro_ap"],
    )


def _write_report(command: str, run: TrainedRun, manifest: RunManifest, **body) -> dict:
    """The report of ``command``: the header every report shares plus
    ``body``; writes it and the manifest under ``manifest.out_dir``."""
    report = {
        "command": command,
        "manifest_hash": manifest.hash(),
        "tool_version": manifest.tool_version,
        "seed": manifest.seed,
        "positives": run.world.gt.positives,
        **body,
    }
    out = Path(manifest.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_bytes_atomic(out / "manifest.json", manifest.to_json().encode("utf-8"))
    write_bytes_atomic(out / "report.json", render_report_json(report).encode("utf-8"))
    return report


def render_report_json(report: dict) -> str:
    """The one JSON form of an artifact, reports and manifests alike."""
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def format_trend_table(report: dict) -> str:
    """Plain-text stage table: one row per stage plus the post-process row."""
    header = f"{'stage':>5}  {'augmentation':<13}{'ref':<5}{'gt':<5}{'post':<6}{'micro_ap':>9}  {'recall_at_p90':>13}"
    lines = [header, "-" * len(header)]
    for row in report["rows"]:
        lines.append(
            f"{str(row['stage']):>5}  "
            f"{(row['augmentation'] or '-'):<13}"
            f"{'yes' if row['trained_with_reference'] else '-':<5}"
            f"{'yes' if row['trained_with_gt'] else '-':<5}"
            f"{'yes' if row['post_process'] else '-':<6}"
            f"{row['micro_ap']:>9.4f}  "
            f"{row['recall_at_p90']:>13.4f}"
        )
    return "\n".join(lines) + "\n"
