"""Timers and counters around the public functions behind each layer.

Each wrapper replaces a name where the program calls it, for example
``staletodo.model.training.adam_step`` or ``staletodo.scan.run_git``, and is
removed again when the traced pass ends. Nothing finer than one commit or
one training batch is timed. Times are inclusive: a span includes the spans
of the calls it makes, so ``scan.candidate_triples_s`` includes the mining
and lexing it drives.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

import staletodo.baselines as baselines
import staletodo.cli as cli
import staletodo.corpus as corpus
import staletodo.model.training as training
import staletodo.scan as scan


def _commit(tracer, commit, args):
    tracer.count["mining.commits"] += 1
    tracer.count["mining.diff_bytes"] += len(commit.diff_text)


def _diff_lines(tracer, doc, args):
    tracer.count["diffs.lines"] += len(doc.lines)


def _built(tracer, result, args):
    samples, counts = result
    tracer.count["corpus.todo_commits"] += counts.todo_commits
    tracer.count["corpus.samples"] += len(samples)


def _vocab(tracer, vocab, args):
    tracer.count["vocab.size"] = len(vocab)


def _rows(tracer, grad, args):
    ids, vocab_size = np.asarray(args[1]), args[2]
    tracer.count["optimizer.rows_touched"] += np.unique(ids[ids != 0]).size / vocab_size


def _clipped(tracer, result, args):
    tracer.count["optimizer.clipped"] += result[0] is not args[0][0]


def _candidates(tracer, triples, args):
    tracer.count["scan.candidates"] += len(triples)


def _findings(tracer, findings, args):
    tracer.count["scan.findings"] += len(findings)


# (module, attribute, span, counter hook). A generator function is timed one
# item at a time, so its span covers only the work done to produce items.
SPANS = (
    (cli, "mine_repository", "mining.mine_repository", _commit),
    (scan, "mine_repository", "mining.mine_repository", _commit),
    (corpus, "parse_unified_diff", "diffs.parse_unified_diff", _diff_lines),
    (scan, "parse_unified_diff", "diffs.parse_unified_diff", _diff_lines),
    (corpus, "normalize_diff", "diffs.normalize_diff", None),
    (scan, "normalize_diff", "diffs.normalize_diff", None),
    (corpus, "extract_comments", "comments.extract_comments", None),
    (scan, "extract_comments_by_file", "comments.extract_comments_by_file", None),
    (corpus, "associate", "comments.associate", None),
    (scan, "associate", "comments.associate", None),
    (corpus, "carve_code_change", "comments.carve_code_change", None),
    (scan, "carve_code_change", "comments.carve_code_change", None),
    (cli, "build_triples", "corpus.build_triples", _built),
    (cli, "read_corpus", "corpus.read_corpus", None),
    (training, "build_vocab", "vocab.build_vocab", _vocab),
    (training, "mean_pool", "network.mean_pool", None),
    (training, "forward", "network.forward", None),
    (training, "mlp_backward", "network.mlp_backward", None),
    (training, "embedding_gradient", "network.embedding_gradient", _rows),
    (training, "clip_gradients", "optimizer.clip_gradients", _clipped),
    (training, "adam_step", "optimizer.adam_step", None),
    (training, "predict_scores", "training.predict_scores", None),
    (cli, "train", "training.train", None),
    (cli, "predict", "training.predict", None),
    (cli, "save_model", "storage.save_model", None),
    (cli, "load_model", "storage.load_model", None),
    (baselines, "tcmo", "baselines.tcmo", None),
    (baselines, "irsc", "baselines.irsc", None),
    (cli, "evaluate", "metrics.evaluate", None),
    (scan, "run_git", "scan.run_git", None),
    (scan, "candidate_triples", "scan.candidate_triples", _candidates),
    (cli, "scan_repository", "scan.scan_repository", _findings),
)

class Tracer:
    """Accumulates span seconds, call counts and layer counters."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, float] = defaultdict(float)

    def _wrap(self, fn, span, hook):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def items(*args, **kwargs):
                it = fn(*args, **kwargs)
                self.calls[span] += 1
                while True:
                    start = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        self.seconds[span] += time.perf_counter() - start
                        return
                    self.seconds[span] += time.perf_counter() - start
                    if hook:
                        hook(self, item, args)
                    yield item
            return items

        @functools.wraps(fn)
        def call(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.seconds[span] += time.perf_counter() - start
            self.calls[span] += 1
            if hook:
                hook(self, result, args)
            return result
        return call

    @contextmanager
    def installed(self):
        originals = [(module, name, getattr(module, name)) for module, name, _, _ in SPANS]
        try:
            for (module, name, span, hook), (_, _, fn) in zip(SPANS, originals):
                setattr(module, name, self._wrap(fn, span, hook))
            yield self
        finally:
            for module, name, fn in originals:
                setattr(module, name, fn)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything traced so far."""
        s, calls, count = self.seconds, self.calls, self.count
        out = {f"{span}_s": s[span] for _, _, span, _ in SPANS}
        batches = calls["optimizer.adam_step"]
        out.update({
            "mining.commits": count["mining.commits"],
            "mining.diff_mb": count["mining.diff_bytes"] / 2**20,
            "diffs.lines": count["diffs.lines"],
            "corpus.todo_commits": count["corpus.todo_commits"],
            "corpus.samples": count["corpus.samples"],
            "corpus.sample_yield": count["corpus.samples"] / max(count["corpus.todo_commits"], 1),
            "vocab.size": count["vocab.size"],
            "optimizer.clip_rate": count["optimizer.clipped"] / max(calls["optimizer.clip_gradients"], 1),
            "optimizer.rows_touched_ratio":
                count["optimizer.rows_touched"] / max(calls["network.embedding_gradient"], 1),
            "training.batches": batches,
            "training.batches_per_s": batches / s["training.train"] if s["training.train"] else 0.0,
            "training.predict_calls": calls["training.predict"],
            "scan.git_processes": calls["scan.run_git"],
            "scan.candidates": count["scan.candidates"],
            "scan.findings": count["scan.findings"],
        })
        return out
