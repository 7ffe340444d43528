"""Benchmark of staletodo's two journeys on a seeded git workload.

    python3 bench/run.py --workload deep-history --seed 1 --seconds 40 --trace 0

Run from the repository root. Each round generates the workload's
repository and ground truth (``setup_s``), then calls
``staletodo.cli.main`` in process as a user would:
``mine``, ``build``, ``train`` and ``eval --baselines`` (the
offline-learning journey, ``learn_s``), then ``scan`` (the online-prediction
journey, ``scan_s``), and checks every output against the ground truth. A
warm-up on a small workload comes first; then as many rounds as fit in
``--seconds`` (at least two) are timed, and each metric is the median over
them. With ``--trace 1`` every round also repeats both journeys with timers
around each layer's public functions and reports those per-layer metrics
instead. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# One BLAS/OpenMP thread: the default thread pool burns CPU on this model's
# small matrices without a speed gain, and makes training times spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# Git reads no user or system configuration, so a setting such as
# diff.noprefix cannot change what the program mines.
os.environ["GIT_CONFIG_NOSYSTEM"] = "1"
os.environ["GIT_CONFIG_GLOBAL"] = os.devnull

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import workloads

SRC = Path("src")
WORK = Path(__file__).resolve().parent / "out"

LEARN = ("mine", "build", "train", "eval")
STAGES = (*LEARN, "scan")


def journey(spec, seed: int, repo: Path, out: Path, cli) -> dict:
    """Run the five CLI stages; returns each stage's wall time in seconds.

    A stage that exits nonzero stops the run: later stages need its output."""
    out.mkdir(parents=True)
    commits, corpus, model = out / "commits.jsonl", out / "corpus.jsonl", out / "model.npz"
    stages = {
        "mine": ["mine", "--repo", repo, "--out", commits],
        "build": ["build", "--in", commits, "--out", corpus, "--lang", spec.language],
        "train": ["train", "--corpus", corpus, "--out", model, "--seed", seed, *spec.train_args],
        "eval": ["eval", "--corpus", corpus, "--model", model, "--baselines", "--seed", seed,
                 "--records", out / "records.jsonl"],
        "scan": ["scan", "--repo", repo, "--model", model, "--report", out / "findings.jsonl"],
    }
    times = {}
    for stage, argv in stages.items():
        log = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main([str(a) for a in argv])
        times[stage] = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"{stage} exited with {code}: {log.getvalue()[-2000:]}")
    times["learn"] = sum(times[s] for s in LEARN)
    return times


def check(seed: int, repo: Path, out: Path, truth: dict) -> list:
    """Every stage call that returned, then every check of its output.

    scan scores exactly the context-line samples that build writes as
    negatives (each workload has one language), so their scores tell which
    TODO texts a correct scan reports.
    """
    from staletodo.corpus import Label, read_corpus, split_dataset
    from staletodo.model import load_model, predict_scores

    samples = read_corpus(str(out / "corpus.jsonl"))
    model = load_model(str(out / "model.npz"))

    def scores(batch: list) -> list[float]:
        # Small chunks keep the checks' memory under the program's peak.
        return [float(x) for i in range(0, len(batch), 64)
                for x in predict_scores(batch[i : i + 64], model)]

    test = list(split_dataset(samples, seed=seed).test)
    negatives = [s for s in samples if s.label is Label.NEGATIVE]
    flagged = {
        " ".join(s.todo_comment.split())
        for s, score in zip(negatives, scores(negatives))
        if score >= 0.5
    }
    return (
        [(f"stage.{stage}", True, "") for stage in STAGES]
        + checks.check_mine(out / "commits.jsonl", repo, truth)
        + checks.check_build(out / "corpus.jsonl", truth)
        + checks.check_eval(out / "records.jsonl", scores(test), [s.label.value for s in test])
        + checks.check_scan(out / "findings.jsonl", truth, flagged)
    )


class Tally:
    """Operations attempted and failed; only the known same-text scan fault
    may fail without making the run incorrect."""

    EXPECTED_FAILURES = {"scan.same_text_pair"}

    def __init__(self):
        self.attempted = self.failed = 0
        self.unexpected: list[str] = []

    def add(self, results: list) -> None:
        for name, passed, detail in results:
            self.attempted += 1
            if not passed:
                self.failed += 1
                if name not in self.EXPECTED_FAILURES:
                    self.unexpected.append(f"{name}: {detail}")


def classifier_f1(records: Path) -> float:
    with open(records, encoding="utf-8") as fh:
        rows = [json.loads(line) for line in fh]
    return next(r["f1"] for r in rows if r["method"] == "classifier") or 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "staletodo" / "cli.py").is_file():
        print(f"error: no program at {SRC / 'staletodo'}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.SPECS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC.resolve()))
    from staletodo import cli
    from tracing import Tracer

    spec = workloads.SPECS[args.workload]
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tally = Tally()
    try:
        # The warm-up runs both journeys on a workload of the same make-up at
        # a tenth of the size. It pays for lazy imports and first calls, so
        # the first round is not cold. It is not timed, and its operations
        # are not counted.
        small = work / "warm-up"
        workloads.generate(workloads.scaled(spec, 0.1), args.seed, small)
        journey(spec, args.seed, small / "repo", small / "out", cli)
        shutil.rmtree(small)

        # Timed rounds fill --seconds to the nearest round: another starts
        # while at least half of one as long as the last still fits. At
        # least two run, so setup_s is a median. Each round generates its own
        # copy of the workload, so the set-ups are spread over the run like
        # the journeys, rather than all landing in one slow or fast spell of
        # the machine.
        rounds: list[dict] = []
        layers: list[dict] = []
        start = time.perf_counter()
        last = 0.0
        while len(rounds) < 2 or time.perf_counter() - start + last / 2 <= args.seconds:
            began = time.perf_counter()
            gc.collect()
            out = work / f"round{len(rounds)}"
            t0 = time.perf_counter()
            truth = workloads.generate(spec, args.seed, out)
            setup = time.perf_counter() - t0
            repo = out / "repo"
            times = journey(spec, args.seed, repo, out / "plain", cli)
            rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            tally.add(check(args.seed, repo, out / "plain", truth))
            measured = {
                "setup_s": setup,
                "learn_s": times["learn"],
                "scan_s": times["scan"],
                "peak_rss_mb": rss,
                "model_mb": (out / "plain" / "model.npz").stat().st_size / 2**20,
                "test_f1": classifier_f1(out / "plain" / "records.jsonl"),
            }
            if args.trace:
                tracer = Tracer()
                with tracer.installed():
                    traced = journey(spec, args.seed, repo, out / "traced", cli)
                tally.add(check(args.seed, repo, out / "traced", truth))
                layer = tracer.metrics()
                layer.update({f"cli.{s}_s": traced[s] for s in STAGES})
                layer["trace.learn_overhead_s"] = traced["learn"] - times["learn"]
                layer["trace.scan_overhead_s"] = traced["scan"] - times["scan"]
                layers.append(layer)
            shutil.rmtree(out)
            rounds.append(measured)
            last = time.perf_counter() - began
            stages = " ".join(f"{s}={times[s]:.3f}" for s in STAGES)
            print(f"round {len(rounds)}: " + " ".join(f"{k}={v:.4f}" for k, v in measured.items())
                  + f" ({stages})", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    source = layers if args.trace else rounds
    metrics = {
        m["name"]: {"value": statistics.median(r[m["name"]] for r in source), "unit": m["unit"]}
        for m in declared
    }
    for problem in tally.unexpected:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
