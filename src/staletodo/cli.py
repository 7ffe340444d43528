"""Command line interface: mine, build, train, eval, scan."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Callable, Optional, Sequence

from . import baselines as bl
from .comments import Language
from .corpus import (
    SchemaViolation,
    TooFewSamples,
    TripleSample,
    build_triples,
    corpus_stats,
    read_corpus,
    render_stats,
    split_dataset,
    write_corpus,
)
from .metrics import evaluate, format_report_table, ranking, report_record, status_of
from .mining import (
    GitFailed,
    GitUnavailable,
    NotARepository,
    mine_repository,
    read_commits,
)
from .model import (
    ExternalVectorStore,
    MissingExternalVector,
    TrainConfig,
    load_model,
    parse_mask,
    predict,  # only for bench/tracing.py to patch
    predict_scores,
    save_model,
    train,
)
from .records import replacing, write_records
from .scan import scan_repository, write_findings

# One seed picks the split and seeds training, so eval sees train's test split.
DEFAULT_SEED = TrainConfig.seed


def _fail(kind: str, detail: str) -> int:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)
    return 1


def _cmd_mine(args) -> int:
    commits = mine_repository(args.repo)
    count = write_records(map(vars, commits), args.out)
    print(f"mined {count} commits from {args.repo} -> {args.out}")
    return 0


def _cmd_build(args) -> int:
    language = Language(args.lang)
    samples, counts = build_triples(read_commits(args.input), language)
    write_corpus(samples, args.out)
    stats = corpus_stats(samples, counts.todo_commits)
    report = render_stats(stats)
    with replacing(args.out + ".stats.txt") as fh:
        fh.write(report + "\n")
    print(report)
    print(
        f"drops: parse={counts.parse_failures} oversize={counts.oversize}"
        f" multi/zero-todo={counts.no_single_todo} unassociated={counts.unassociated}"
        f" added-kind={counts.added_kind} empty-change={counts.empty_change}"
        f" empty-message={counts.empty_message}"
    )
    print(f"wrote {len(samples)} triples -> {args.out}")
    return 0


def _vector_store(args, backend: str) -> Optional[ExternalVectorStore]:
    """The --vectors store that the external backend reads; None for the internal one."""
    if backend != "external":
        return None
    if not args.vectors:
        raise ValueError("the external backend requires --vectors")
    return ExternalVectorStore.read(args.vectors)


def _cmd_train(args) -> int:
    samples = read_corpus(args.corpus)
    split = split_dataset(samples, seed=args.seed)
    # Each train option's dest is a TrainConfig field name.
    options = {f.name: getattr(args, f.name) for f in dataclasses.fields(TrainConfig)}
    config = TrainConfig(**{**options, "component_mask": parse_mask(args.component_mask)})
    model, history = train(split, config, _vector_store(args, config.backend))
    save_model(model, args.out)
    best = next(
        (v for v in history.validations if v.batch == history.best_batch), None
    )
    best_f1 = None if best is None else best.val_f1
    print(
        f"trained {history.final_batch} batches"
        f" (best checkpoint at batch {history.best_batch}, val F1 "
        f"{'n/a' if best_f1 is None else f'{best_f1:.4f}'})"
        f"{' [diverged]' if history.diverged else ''}"
    )
    if model.encoders:
        sizes = " ".join(f"{c.value}={len(e.vocab)}" for c, e in model.encoders.items())
        print(f"vocab {sizes}")
    print(f"model -> {args.out}")
    return 0


def _load_scorer(args) -> Callable[[Sequence[TripleSample]], Sequence[float]]:
    """predict_scores bound to the --model file (and --vectors if it needs them)."""
    model = load_model(args.model)
    store = _vector_store(args, model.config.backend)
    return lambda samples: predict_scores(samples, model, store)


def _cmd_eval(args) -> int:
    if not 0 <= args.irsc_threshold <= 1:  # NaN lies in no interval
        raise ValueError(f"--irsc-threshold must lie in [0, 1], got {args.irsc_threshold}")
    samples = read_corpus(args.corpus)
    split = split_dataset(samples, seed=args.seed)
    test = list(split.test)
    labels = [s.label for s in test]
    reports = []

    if args.model:
        scores = _load_scorer(args)(test)
        report = evaluate([status_of(s) for s in scores], labels, "classifier", args.corpus)
        auc, average_precision = ranking(scores, labels)
        reports.append(dataclasses.replace(report, auc=auc, average_precision=average_precision))

    if args.baselines:
        space = bl.TfidfSpace(bl.background_documents(list(split.train)))
        # Through the module, so that bench/tracing.py's patches of tcmo and irsc apply.
        for name, fn in (("TCO", bl.tco), ("TMO", bl.tmo), ("TCMO", bl.tcmo)):
            for suffix, stemming in (("", True), (" (no stem)", False)):
                preds = [fn(s, stemming) for s in test]
                reports.append(evaluate(preds, labels, name + suffix, args.corpus))
        if args.irsc_sweep:
            threshold = _sweep_irsc(list(split.val), space)
            print(f"IRSC threshold swept on validation split: {threshold}")
        else:
            threshold = args.irsc_threshold
        preds = [bl.irsc(s, space, threshold) for s in test]
        reports.append(evaluate(preds, labels, f"IRSC@{threshold}", args.corpus))

    if not reports:
        raise ValueError("nothing to evaluate: pass --model and/or --baselines")
    print(format_report_table(reports))
    if args.records:
        write_records(map(report_record, reports), args.records)
        print(f"records -> {args.records}")
    return 0


def _sweep_irsc(val, space) -> float:
    """The threshold in 0.05, 0.10, ..., 0.95 with the best validation F1,
    the lowest on ties, or IRSC_THRESHOLD when no F1 is defined; each
    sample's similarity is computed once."""
    similarities = [bl.irsc_similarity(s, space) for s in val]
    labels = [s.label for s in val]
    best_threshold, best_f1 = bl.IRSC_THRESHOLD, -1.0
    for i in range(1, 20):
        threshold = i / 20
        f1 = evaluate([status_of(x, threshold) for x in similarities], labels).f1
        f1 = -1.0 if f1 is None else f1
        if f1 > best_f1:
            best_threshold, best_f1 = threshold, f1
    return best_threshold


def _cmd_scan(args) -> int:
    findings = scan_repository(args.repo, _load_scorer(args))
    for finding in findings:
        location = (
            f"{finding.file_path}:{finding.line_no}"
            if finding.line_no is not None
            else finding.file_path
        )
        print(
            f"{finding.classification.value}  score={finding.score:.4f}"
            f"  {location}  resolved-by={finding.commit_id}  {finding.todo_text}"
        )
    print(f"{len(findings)} finding(s)")
    if args.report:
        write_findings(findings, args.report)
        print(f"report -> {args.report}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="staletodo",
        description="Detect TODO comments whose task was finished but whose comment survived.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mine", help="dump a repository's commit history to a file")
    p.add_argument("--repo", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mine)

    p = sub.add_parser("build", help="build a labeled triple corpus from mined commits")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--lang", required=True, choices=[l.value for l in Language])
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("train", help="train the classifier on a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    # No type= for --mask: an unknown name is a ValueError record, not a usage error.
    p.add_argument("--mask", dest="component_mask", default="cc,td,msg")
    p.add_argument("--backend", default=TrainConfig.backend, choices=["internal", "external"])
    p.add_argument("--vectors", default=None)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--epochs", dest="max_epochs", type=int, default=TrainConfig.max_epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--validate-every", type=int, default=TrainConfig.validate_every)
    p.add_argument("--dim", type=int, default=TrainConfig.dim)
    p.add_argument("--min-freq", type=int, default=TrainConfig.min_freq)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate the classifier and/or baselines")
    p.add_argument("--corpus", required=True)
    p.add_argument("--model", default=None)
    p.add_argument("--vectors", default=None)
    p.add_argument("--baselines", action="store_true")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--irsc-threshold", type=float, default=bl.IRSC_THRESHOLD)
    group.add_argument("--irsc-sweep", action="store_true")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--records", default=None)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("scan", help="scan a repository for obsolete TODO comments")
    p.add_argument("--repo", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--vectors", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=_cmd_scan)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GitUnavailable as exc:
        return _fail("git_unavailable", str(exc))
    except GitFailed as exc:
        return _fail("git_failed", str(exc))
    except NotARepository as exc:
        return _fail("not_a_repository", str(exc))
    except SchemaViolation as exc:
        return _fail("schema_violation", str(exc))
    except TooFewSamples as exc:
        return _fail("too_few_samples", str(exc))
    except MissingExternalVector as exc:
        return _fail("missing_external_vector", str(exc))
    except (ValueError, OSError) as exc:
        return _fail(type(exc).__name__.lower(), str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
