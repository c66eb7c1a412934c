"""Command-line entry point wiring the modules into reproducible runs."""

from __future__ import annotations

import argparse
import json
import sys

from .datagen import TIER_NAMES, gen_world, load_world, write_world
from .embedding import read_embeddings, write_embeddings
from .errors import CopyDetError, FormatError
from .metrics import (
    match_candidates,
    micro_ap,
    read_gt_csv,
    read_matches_tsv,
    recall_at_precision,
    write_matches_tsv,
)
from .pipeline import (
    POSTPROCESS_TARGETS,
    RunManifest,
    negative_swap,
    render_report_json,
    reproduce_trend,
    train_encoder,
)
from .postprocess import NegSubConfig, subtract_negatives_batch
from .train import Encoder, LossConfig, StageConfig, default_stage_schedule


class _Parser(argparse.ArgumentParser):
    # Usage problems are validation errors: exit 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_stages(path: str | None) -> list[StageConfig]:
    if path is None:
        return default_stage_schedule()
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError(f"{path}: stage file must hold a JSON list")
    return [StageConfig.from_dict(d) for d in data]


def _cmd_gen_data(args) -> int:
    world = gen_world(
        seed=args.seed,
        n_train=args.n_train,
        n_ref=args.n_ref,
        n_query=args.n_query,
        d_in=args.dim,
        copy_rate=args.copy_rate,
        tier=args.tier,
    )
    write_world(world, args.out_dir)
    print(json.dumps({"out_dir": args.out_dir, "positives": len(world.gt)}))
    return 0


def _cmd_train(args) -> int:
    # CLI train has no margin or momentum flags: it takes the run defaults.
    encoder, losses = train_encoder(
        load_world(args.world), _load_stages(args.stages), args.seed, args.dim, args.hidden,
        args.bank_capacity, LossConfig(), RunManifest.momentum,
    )
    encoder.save(args.out)
    print(json.dumps({"out": args.out, "stages": losses}))
    return 0


def _cmd_embed(args) -> int:
    encoder = Encoder.load(args.encoder)
    raw = read_embeddings(args.in_path)
    write_embeddings(encoder.encode_set(raw), args.out)
    return 0


def _cmd_postprocess(args) -> int:
    negatives = read_embeddings(args.negatives)
    targets = read_embeddings(args.in_path)
    cfg = NegSubConfig(n=args.n, k=args.k, beta=args.beta)
    write_embeddings(subtract_negatives_batch(targets, negatives, cfg), args.out)
    return 0


def _cmd_search(args) -> int:
    queries = read_embeddings(args.queries)
    db = read_embeddings(args.db)
    write_matches_tsv(args.out or sys.stdout, match_candidates(queries, db, args.k))
    return 0


def _cmd_eval(args) -> int:
    gt = read_gt_csv(args.gt)
    ranked = read_matches_tsv(args.pred)
    recall_key = "recall_at_p90" if args.p == 0.9 else f"recall_at_p{round(args.p * 100)}"
    print(
        json.dumps(
            {
                "micro_ap": micro_ap(ranked, gt),
                recall_key: recall_at_precision(ranked, gt, args.p),
                "pairs": len(ranked),
                "positives": gt.positives,
            }
        )
    )
    return 0


def _manifest_from_args(args) -> RunManifest:
    # Each run flag's dest is the manifest field it sets; unset flags are None.
    d = RunManifest(seed=args.seed, out_dir=args.out_dir).to_dict()
    d.update((name, value) for name, value in vars(args).items() if name in d and value is not None)
    d["stages"] = _load_stages(args.stages_file)
    return RunManifest(**d)


def _cmd_reproduce_trend(args) -> int:
    report = reproduce_trend(_manifest_from_args(args))
    sys.stdout.write(render_report_json(report))
    return 0


def _cmd_negative_swap(args) -> int:
    report = negative_swap(_manifest_from_args(args))
    sys.stdout.write(render_report_json(report))
    return 0


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, required=True, help="master seed for all sub-streams")
    p.add_argument("--out-dir", required=True, help="directory for run artifacts")
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--n-ref", type=int, default=None)
    p.add_argument("--n-query", type=int, default=None)
    p.add_argument("--dim", dest="d_in", type=int, default=None, help="raw feature dimension")
    p.add_argument("--copy-rate", type=float, default=None)
    p.add_argument("--world-tier", choices=TIER_NAMES, default=None)
    p.add_argument("--encoder-dim", type=int, default=None)
    p.add_argument("--bank-capacity", type=int, default=None)
    p.add_argument("--per-query-k", type=int, default=None)
    p.add_argument("--stages", dest="stages_file", default=None, help="JSON file with the stage schedule")
    p.add_argument("--n", dest="negsub_n", type=int, default=None, help="post-process iterations")
    p.add_argument("--k", dest="negsub_k", type=int, default=None, help="post-process neighbors per iteration")
    p.add_argument("--beta", dest="negsub_beta", type=float, default=None, help="post-process subtraction factor")
    p.add_argument("--postprocess-targets", choices=POSTPROCESS_TARGETS, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="copydet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic world")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--n-train", type=int, default=4096)
    p.add_argument("--n-ref", type=int, default=4096)
    p.add_argument("--n-query", type=int, default=512)
    p.add_argument("--dim", type=int, default=64)
    p.add_argument("--copy-rate", type=float, default=0.25)
    p.add_argument("--tier", choices=TIER_NAMES, default="strong")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="run the staged schedule on a world directory")
    p.add_argument("--world", required=True)
    p.add_argument("--stages", default=None, help="JSON file; defaults to the built-in schedule")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="encoder checkpoint path")
    p.add_argument("--dim", type=int, default=32, help="descriptor dimension")
    p.add_argument("--hidden", type=int, default=0, help="hidden width, 0 for linear")
    p.add_argument("--bank-capacity", type=int, default=2048)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("embed", help="encode a raw vector file into descriptors")
    p.add_argument("--encoder", required=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("postprocess", help="negative-subtraction post-process")
    p.add_argument("--negatives", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--beta", type=float, default=0.35)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_postprocess)

    p = sub.add_parser("search", help="exact top-k matches as TSV")
    p.add_argument("--queries", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--out", default=None, help="TSV path; stdout when omitted")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("eval", help="micro-AP and recall at precision")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--p", type=float, default=0.9)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("reproduce-trend", help="staged run with per-stage metrics")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_reproduce_trend)

    p = sub.add_parser("negative-swap", help="post-process with training vs twin pool")
    _add_run_flags(p)
    p.set_defaults(func=_cmd_negative_swap)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"copydet: {exc}", file=sys.stderr)
        return 2
    except (CopyDetError, ValueError) as exc:
        print(f"copydet: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
