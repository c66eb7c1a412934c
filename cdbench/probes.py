"""Outside-in layer probes for one traced run.

Each probe wraps a public function or method of a ``copydet`` module and
records its calls, its span (inclusive time) and its self time (the span
minus the spans of probed calls made inside it). The wrapper is bound in
every ``copydet`` module that holds the original, so calls through imported
aliases (``pipeline.run_stage``, ``postprocess.topk``, the CLI's and the
package's names) are seen too; methods are patched on their class. A probe
whose target no longer exists records zero calls.

Counts are computed from each call's arguments (and, for the candidate
count, its result) after the call returns. The time spent counting is
excluded from every enclosing span, so counts repeat exactly and do not
inflate self times.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _count_augment(t, result, *args, **kwargs):
    v = _arg(args, kwargs, 0, "v")
    t.counts["augment_rows"] += 1 if getattr(v, "ndim", 1) <= 1 else len(v)


def _count_loss(t, result, *args, **kwargs):
    b = len(_arg(args, kwargs, 0, "embeddings"))
    bank = _arg(args, kwargs, 2, "bank")
    m = 0 if bank is None else len(bank)
    t.counts["loss_pairs"] += b * (b - 1) // 2 + b * m
    t.counts["bank_fill_sum"] += 0.0 if bank is None else m / bank.capacity


def _count_encode(t, result, *args, **kwargs):
    t.counts["encode_rows"] += _arg(args, kwargs, 1, "es").count


def _scores(t, n_queries, db):
    n = n_queries * db.count
    t.counts["scores"] += n
    t.counts["scores_peak_mb"] = max(t.counts["scores_peak_mb"], n * 8 / 2**20)


def _count_topk(t, result, *args, **kwargs):
    _scores(t, 1, _arg(args, kwargs, 1, "db"))


def _count_topk_batch(t, result, *args, **kwargs):
    _scores(t, _arg(args, kwargs, 0, "queries").count, _arg(args, kwargs, 1, "db"))


def _count_targets(t, result, *args, **kwargs):
    t.counts["targets"] += _arg(args, kwargs, 0, "targets").count


def _count_candidates(t, result, *args, **kwargs):
    t.counts["candidates"] += len(result)


def _file_bytes(path) -> int:
    path = Path(path)
    return sum(p.stat().st_size for p in (path, path.with_suffix(".ids")) if p.exists())


def _count_read(t, result, *args, **kwargs):
    t.counts["emb_bytes"] += _file_bytes(_arg(args, kwargs, 0, "path"))


def _count_write(t, result, *args, **kwargs):
    t.counts["emb_bytes"] += _file_bytes(_arg(args, kwargs, 1, "path"))


# (target "module:qualname", count hook). Stats are kept per target.
PROBES = [
    ("datagen:gen_world", None),
    ("datagen:augment_vector", _count_augment),
    ("train:contrastive_loss", _count_loss),
    ("train:MemoryBank.contents", None),
    ("train:MemoryBank.push", None),
    ("train:run_stage", None),
    ("train:encoder_loss_and_grads", None),
    ("train:sgd_momentum_step", None),
    ("train:Encoder.encode_set", _count_encode),
    ("search:topk", _count_topk),
    ("search:topk_batch", _count_topk_batch),
    ("postprocess:subtract_negatives", None),
    ("postprocess:subtract_negatives_batch", _count_targets),
    ("metrics:build_candidates", None),
    ("metrics:RankedMatches.from_candidates", _count_candidates),
    ("metrics:micro_ap", None),
    ("metrics:recall_at_precision", None),
    ("metrics:read_matches_tsv", None),
    ("metrics:write_matches_tsv", None),
    ("metrics:read_gt_csv", None),
    ("embedding:read_embeddings", _count_read),
    ("embedding:write_embeddings", _count_write),
    ("pipeline:reproduce_trend", None),
    ("pipeline:train_and_embed", None),
    ("cli:main", None),
]


class Tracer:
    """Per-target call counts, spans and self times, plus argument-derived counts."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.span: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.errors: list[str] = []
        self._children: list[float] = []
        self._excluded = 0.0

    def wrap(self, key, fn, count):
        children = self._children

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            children.append(0.0)
            excluded0 = self._excluded
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - t0 - (self._excluded - excluded0)
                inner = children.pop()
                if children:
                    children[-1] += span
                self.calls[key] += 1
                self.span[key] += span
                self.self_time[key] += span - inner
            if count is not None:
                c0 = perf_counter()
                try:
                    count(self, result, *args, **kwargs)
                except Exception as exc:  # a changed signature must not fail the run
                    self.errors.append(f"{key}: {exc!r}")
                self._excluded += perf_counter() - c0
            return result

        return probe

    def install(self) -> None:
        """Wrap every target in PROBES; call after ``copydet.cli`` is imported."""
        modules = [m for name, m in sys.modules.items() if name == "copydet" or name.startswith("copydet.")]
        for key, count in PROBES:
            module_name, _, qualname = key.partition(":")
            owner = sys.modules.get(f"copydet.{module_name}")
            *outer, attr = qualname.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            raw = None if owner is None else vars(owner).get(attr)
            if raw is None:
                self.missing.append(key)
                continue
            if outer:  # a method: patch it on its class
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(key, raw.__func__, count)))
                else:
                    setattr(owner, attr, self.wrap(key, raw, count))
                continue
            probe = self.wrap(key, raw, count)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is raw:
                        setattr(module, name, probe)

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "span": dict(self.span),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "missing": self.missing,
            "errors": self.errors,
        }


def _self(*keys):
    return lambda snap, run: sum(snap["self"].get(k, 0.0) for k in keys)


def _calls(key):
    return lambda snap, run: snap["calls"].get(key, 0)


def _count(name):
    return lambda snap, run: snap["counts"].get(name, 0)


def _bank_fill(snap, run):
    calls = snap["calls"].get("train:contrastive_loss", 0)
    return snap["counts"].get("bank_fill_sum", 0.0) / calls if calls else 0.0


def _run(name):
    return lambda snap, run: run[name]


_TRAIN = "run_cpu_s on trend; absent on match"
_SEARCH = "run_cpu_s on match; small on trend"
_ALL = "run_cpu_s and setup_s on all workloads"

# (name, unit, better, the end-to-end metric and workload it should move,
# value from the probe snapshot and the run facts). Run facts: "traced" is
# the traced run's wall time, "untraced" the median untraced run of the
# same invocation, the traced process's kernel time and minor page faults,
# and the headline ranking's quality.
LAYER_METRICS = [
    ("datagen.gen_world_s", "s", "lower", "run_cpu_s on trend", _self("datagen:gen_world")),
    ("datagen.augment_s", "s", "lower", "run_cpu_s on trend; flat on match", _self("datagen:augment_vector")),
    ("datagen.augment_rows", "count", "lower", "run_cpu_s on trend; flat on match", _count("augment_rows")),
    ("train.loss_s", "s", "lower", _TRAIN, _self("train:contrastive_loss")),
    ("train.loss_pairs", "count", "lower", _TRAIN, _count("loss_pairs")),
    ("train.bank_fill", "ratio", "higher", _TRAIN, _bank_fill),
    ("train.bank_read_s", "s", "lower", _TRAIN, _self("train:MemoryBank.contents")),
    ("train.bank_push_s", "s", "lower", _TRAIN, _self("train:MemoryBank.push")),
    ("train.stage_self_s", "s", "lower", "run_cpu_s on trend", _self("train:run_stage")),
    ("train.encoder_s", "s", "lower", "run_cpu_s on trend", _self("train:encoder_loss_and_grads")),
    ("train.sgd_s", "s", "lower", "run_cpu_s on trend", _self("train:sgd_momentum_step")),
    ("train.batches", "count", "lower", "run_cpu_s on trend", _calls("train:encoder_loss_and_grads")),
    ("train.encode_s", "s", "lower", "run_cpu_s on match", _self("train:Encoder.encode_set")),
    ("train.encode_rows", "count", "lower", "run_cpu_s on match", _count("encode_rows")),
    ("search.topk_s", "s", "lower", _SEARCH, _self("search:topk")),
    ("search.topk_calls", "count", "lower", _SEARCH, _calls("search:topk")),
    ("search.topk_batch_s", "s", "lower", "run_cpu_s and peak_rss_mb on match", _self("search:topk_batch")),
    ("search.scores", "count", "lower", "run_cpu_s and peak_rss_mb on match", _count("scores")),
    ("search.scores_peak_mb", "MiB", "lower", "run_cpu_s and peak_rss_mb on match", _count("scores_peak_mb")),
    ("postprocess.self_s", "s", "lower", _SEARCH,
     _self("postprocess:subtract_negatives", "postprocess:subtract_negatives_batch")),
    ("postprocess.targets", "count", "lower", _SEARCH, _count("targets")),
    ("metrics.rank_s", "s", "lower", "run_cpu_s on match",
     _self("metrics:build_candidates", "metrics:RankedMatches.from_candidates")),
    ("metrics.ap_s", "s", "lower", "run_cpu_s on match", _self("metrics:micro_ap", "metrics:recall_at_precision")),
    ("metrics.io_s", "s", "lower", "run_cpu_s on match",
     _self("metrics:read_matches_tsv", "metrics:write_matches_tsv", "metrics:read_gt_csv")),
    ("metrics.candidates", "count", "lower", "run_cpu_s on match", _count("candidates")),
    ("metrics.micro_ap", "ratio", "higher", "no time; shows a change of results on every workload",
     _run("micro_ap")),
    ("metrics.recall_at_p90", "ratio", "higher", "no time; shows a change of results on every workload",
     _run("recall_at_p90")),
    ("embedding.read_s", "s", "lower", "run_cpu_s on match", _self("embedding:read_embeddings")),
    ("embedding.write_s", "s", "lower", "run_cpu_s on match and trend", _self("embedding:write_embeddings")),
    ("embedding.bytes", "bytes", "lower", "run_cpu_s on match and trend", _count("emb_bytes")),
    ("pipeline.self_s", "s", "lower", "run_cpu_s on trend",
     _self("pipeline:reproduce_trend", "pipeline:train_and_embed")),
    ("cli.self_s", "s", "lower", _ALL, _self("cli:main")),
    ("cli.start_s", "s", "lower", _ALL, lambda snap, run: run["traced"] - snap["span"].get("cli:main", 0.0)),
    ("process.sys_s", "s", "lower", "run_cpu_s on every workload: kernel time, mostly page faults of fresh arrays",
     _run("sys_s")),
    ("process.minor_faults", "count", "lower", "run_cpu_s on every workload", _run("minor_faults")),
    ("trace.wall_s", "s", "lower", "the traced run's wall time, the base of every share", _run("traced")),
    ("trace.overhead_s", "s", "lower", "nothing a user sees: the probes' own cost",
     lambda snap, run: run["traced"] - run["untraced"]),
]


def layer_metrics(snapshot: dict, run: dict) -> dict[str, float]:
    return {name: value(snapshot, run) for name, _, _, _, value in LAYER_METRICS}
