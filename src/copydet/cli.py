"""Command-line entry point wiring the modules into reproducible runs."""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import fields

from .datagen import TIER_NAMES, WorldConfig, gen_world, load_world, write_world
from .embedding import read_embeddings, read_text, write_embeddings
from .errors import CopyDetError, FormatError
from .metrics import TARGET_PRECISION, build_candidates, evaluate, read_gt_csv, read_matches_tsv, write_matches_tsv
from .pipeline import (
    RunManifest,
    negative_swap,
    render_report_json,
    reproduce_trend,
    train_encoder,
)
from .postprocess import NegSubConfig, subtract_negatives_batch
from .train import Encoder


class _Parser(argparse.ArgumentParser):
    # Usage problems are validation errors: exit 1, not argparse's 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _given(args, names) -> dict:
    # The flags among names that the command line set, by dest: a flag's
    # dest is the parameter or field it sets, and an unset flag is None.
    return {name: value for name, value in vars(args).items() if name in names and value is not None}


def _cmd_gen_data(args) -> int:
    world = gen_world(args.seed, WorldConfig(**_given(args, {f.name for f in fields(WorldConfig)})))
    write_world(world, args.out_dir)
    print(json.dumps({"out_dir": args.out_dir, "positives": world.gt.positives}))
    return 0


def _cmd_train(args) -> int:
    manifest = _manifest_from_args(args)
    if not os.path.isdir(os.path.dirname(args.out) or "."):
        os.stat(args.out)  # fails, naming args.out, as the save after training would
    encoder, losses = train_encoder(load_world(args.world_dir), manifest)
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
    cfg = NegSubConfig(**_given(args, {f.name for f in fields(NegSubConfig)}))
    write_embeddings(subtract_negatives_batch(targets, negatives, cfg), args.out)
    return 0


def _cmd_search(args) -> int:
    queries = read_embeddings(args.queries)
    db = read_embeddings(args.db)
    write_matches_tsv(args.out or sys.stdout, build_candidates(queries, db, args.k))
    return 0


def _cmd_eval(args) -> int:
    gt = read_gt_csv(args.gt)
    ranked = read_matches_tsv(args.pred)
    print(json.dumps({**evaluate(ranked, gt, args.p), "pairs": len(ranked), "positives": gt.positives}))
    return 0


def _manifest_from_args(args) -> RunManifest:
    # The default manifest with the fields of the flags given, at the top
    # level and in each nested config; train has no --out-dir.
    # RunManifest checks every setting, stages included.
    d = RunManifest(seed=args.seed, out_dir="").to_dict()
    for config in [d, *(v for v in d.values() if isinstance(v, dict))]:
        config.update(_given(args, config))
    if args.stages_file is not None:
        try:
            d["stages"] = json.loads(read_text(args.stages_file))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise FormatError(f"{args.stages_file}: not JSON ({exc})") from exc
        if not isinstance(d["stages"], list):
            raise ValueError(f"{args.stages_file}: stage file must hold a JSON list")
    return RunManifest.from_dict(d)


def _cmd_run(args) -> int:
    # args.run is reproduce_trend or negative_swap.
    sys.stdout.write(render_report_json(args.run(_manifest_from_args(args))))
    return 0


def _add_world_flags(p: argparse.ArgumentParser, tier_flag: str) -> None:
    # Unset flags are None: gen-data leaves them to WorldConfig, a run to RunManifest.
    p.add_argument("--seed", type=int, required=True, help="master seed for all sub-streams")
    p.add_argument("--out-dir", required=True, help="output directory")
    p.add_argument("--n-train", type=int, default=None)
    p.add_argument("--n-ref", type=int, default=None)
    p.add_argument("--n-query", type=int, default=None)
    p.add_argument("--dim", dest="d_in", type=int, default=None, help="raw feature dimension")
    p.add_argument("--copy-rate", type=float, default=None)
    p.add_argument(tier_flag, dest="tier", choices=TIER_NAMES, default=None)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    _add_world_flags(p, "--world-tier")
    p.add_argument("--encoder-dim", type=int, default=None)
    p.add_argument("--bank-capacity", type=int, default=None)
    p.add_argument("--per-query-k", type=int, default=None)
    p.add_argument("--stages", dest="stages_file", default=None, help="JSON file with the stage schedule")
    _add_postprocess_flags(p)


def _add_postprocess_flags(p: argparse.ArgumentParser) -> None:
    # Unset flags are None: postprocess leaves them to NegSubConfig, a run to RunManifest.
    p.add_argument("--n", type=int, default=None, help="post-process iterations")
    p.add_argument("--k", type=int, default=None, help="post-process neighbors per iteration")
    p.add_argument("--beta", type=float, default=None, help="post-process subtraction factor")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(prog="copydet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic world")
    _add_world_flags(p, "--tier")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="run the staged schedule on a world directory")
    p.add_argument("--world", dest="world_dir", metavar="WORLD", required=True)
    p.add_argument("--stages", dest="stages_file", default=None, help="JSON file; defaults to the built-in schedule")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True, help="encoder checkpoint path")
    # Unset flags take RunManifest's defaults, as a run's do.
    p.add_argument("--dim", dest="encoder_dim", type=int, default=None,
                   help="encoder output (descriptor) width, which a run sets with --encoder-dim")
    p.add_argument("--hidden", dest="encoder_hidden", type=int, default=None, help="hidden width, 0 for linear")
    p.add_argument("--bank-capacity", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("embed", help="encode a raw vector file into descriptors")
    p.add_argument("--encoder", required=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("postprocess", help="negative-subtraction post-process")
    p.add_argument("--negatives", required=True)
    _add_postprocess_flags(p)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_postprocess)

    p = sub.add_parser("search", help="exact top-k matches as TSV")
    p.add_argument("--queries", required=True)
    p.add_argument("--db", required=True)
    p.add_argument("--k", type=int, default=RunManifest.per_query_k)
    p.add_argument("--out", default=None, help="TSV path; stdout when omitted")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("eval", help="micro-AP and recall at precision")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--p", type=float, default=TARGET_PRECISION)
    p.set_defaults(func=_cmd_eval)

    for name, run, summary in [
        ("reproduce-trend", reproduce_trend, "staged run with per-stage metrics"),
        ("negative-swap", negative_swap, "post-process with training vs twin pool"),
    ]:
        p = sub.add_parser(name, help=summary)
        _add_run_flags(p)
        p.set_defaults(func=_cmd_run, run=run)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, OSError) as exc:
        print(f"copydet: {exc}", file=sys.stderr)
        return 2
    except (CopyDetError, ValueError, OverflowError, MemoryError) as exc:
        print(f"copydet: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
