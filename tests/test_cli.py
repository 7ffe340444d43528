"""Command line smoke tests: mine, build, train, eval, scan."""

import dataclasses
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import staletodo.cli as cli
import staletodo.baselines as bl
from helpers import (
    make_separable_corpus,
    per_sample_evaluate,
    planted_vectors,
    random_sample,
    read_meta,
)
from staletodo.__main__ import BLAS_THREAD_VARIABLES
from staletodo.baselines import TfidfSpace, added_lines_text, background_documents, cosine, irsc
from staletodo.cli import main
from staletodo.corpus import Label, read_corpus, split_dataset, write_corpus
from staletodo.diffs import LineKind
from staletodo.metrics import (
    Status,
    confusion,
    format_report_table,
    metrics,
    ranking,
    report_record,
    status_of,
)
from staletodo.mining import mine_repository
from staletodo.model import ExternalVectorStore, TrainConfig, load_model, predict_scores
from staletodo.model.network import Component
from staletodo.model.storage import encode_meta, write_external_vectors
from staletodo.model.training import component_text
from staletodo.model.vocab import build_vocab
from staletodo.records import write_records
from staletodo.scan import candidate_triples, scan_repository, write_findings


@pytest.fixture(scope="module")
def synthetic_corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    write_corpus(make_separable_corpus(60, seed=77), str(path))
    return str(path)


@pytest.fixture(scope="module")
def model_path(tmp_path_factory, synthetic_corpus_path):
    path = tmp_path_factory.mktemp("cli_model") / "model.npz"
    code = main(
        [
            "train",
            "--corpus", synthetic_corpus_path,
            "--out", str(path),
            "--epochs", "60",
            "--dim", "32",
            "--validate-every", "20",
            "--min-freq", "1",
            "--seed", "3",
        ]
    )
    assert code == 0
    return str(path)


class TestMineAndBuild:
    def test_mine_then_build(self, pipeline_repo, tmp_path, capsys):
        commits_path = str(tmp_path / "commits.jsonl")
        assert main(["mine", "--repo", str(pipeline_repo), "--out", commits_path]) == 0
        out = capsys.readouterr().out
        assert "mined 10 commits" in out

        corpus_path = str(tmp_path / "corpus.jsonl")
        assert main(["build", "--in", commits_path, "--out", corpus_path, "--lang", "python"]) == 0
        out = capsys.readouterr().out
        assert "# TODO Commits" in out
        assert "wrote 5 triples" in out
        samples = read_corpus(corpus_path)
        assert len(samples) == 5
        assert (tmp_path / "corpus.jsonl.stats.txt").exists()

    def test_mine_stale_path_fails_with_json_error(self, tmp_path, capsys):
        code = main(["mine", "--repo", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.strip()
        record = json.loads(err.splitlines()[-1])
        assert record["error"] == "not_a_repository"


class TestTrainEval:
    def test_train_writes_model(self, model_path, capsys):
        assert model_path.endswith("model.npz")

    @pytest.mark.parametrize("mask", ["cc,td,msg", "td"])
    def test_train_prints_each_encoder_vocabulary_size(
        self, synthetic_corpus_path, mask, tmp_path, capsys
    ):
        argv = ["train", "--corpus", synthetic_corpus_path, "--out", str(tmp_path / "m.npz"),
                "--epochs", "1", "--dim", "8", "--mask", mask, "--seed", "5"]
        assert main(argv) == 0
        train = split_dataset(read_corpus(synthetic_corpus_path), seed=5).train
        sizes = " ".join(
            f"{c}={len(build_vocab([component_text(s, Component(c)) for s in train]))}"
            for c in mask.split(",")
        )
        assert f"vocab {sizes}" in capsys.readouterr().out.splitlines()

    def test_eval_model_and_baselines(self, synthetic_corpus_path, model_path, tmp_path, capsys):
        records_path = str(tmp_path / "records.jsonl")
        code = main(
            [
                "eval",
                "--corpus", synthetic_corpus_path,
                "--model", model_path,
                "--baselines",
                "--seed", "0",
                "--records", records_path,
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Measure" in out and "classifier" in out and "TCO" in out and "IRSC@0.3" in out
        rows = [json.loads(line) for line in open(records_path, encoding="utf-8")]
        methods = {r["method"] for r in rows}
        assert "classifier" in methods
        assert "TCMO" in methods
        assert "TCMO (no stem)" in methods

    def test_eval_ranks_the_classifier_scores_and_not_the_baselines(
        self, synthetic_corpus_path, model_path, tmp_path
    ):
        samples = read_corpus(synthetic_corpus_path)
        seed = next(
            seed for seed in range(50)
            if len({s.label for s in split_dataset(samples, seed=seed).test}) == 2
        )
        records_path = str(tmp_path / "records.jsonl")
        argv = ["eval", "--corpus", synthetic_corpus_path, "--model", model_path,
                "--baselines", "--seed", str(seed), "--records", records_path]
        assert main(argv) == 0
        rows = {r["method"]: r for r in map(json.loads, open(records_path, encoding="utf-8"))}
        test = list(split_dataset(samples, seed=seed).test)
        scores = predict_scores(test, load_model(model_path))
        expected = ranking(scores, [s.label for s in test])
        assert None not in expected
        assert (rows["classifier"]["auc"], rows["classifier"]["average_precision"]) == expected
        assert all(r["auc"] is None and r["average_precision"] is None
                   for method, r in rows.items() if method != "classifier")

    def test_eval_irsc_sweep(self, synthetic_corpus_path, capsys):
        code = main(
            ["eval", "--corpus", synthetic_corpus_path, "--baselines", "--irsc-sweep"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "IRSC threshold swept" in out

    @pytest.mark.parametrize("threshold", ["nan", "-5", "1.5", "inf"])
    def test_irsc_threshold_outside_0_1_is_a_value_error_record(
        self, synthetic_corpus_path, threshold, capsys
    ):
        argv = ["eval", "--corpus", synthetic_corpus_path, "--baselines",
                "--irsc-threshold", threshold]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert json.loads(err.strip().splitlines()[-1]) == {
            "error": "valueerror",
            "detail": f"--irsc-threshold must lie in [0, 1], got {float(threshold)}",
        }
        assert "IRSC" not in out

    @pytest.mark.parametrize("threshold", ["0", "1"])
    def test_irsc_threshold_at_either_end_is_accepted(
        self, synthetic_corpus_path, threshold, capsys
    ):
        argv = ["eval", "--corpus", synthetic_corpus_path, "--baselines",
                "--irsc-threshold", threshold]
        assert main(argv) == 0
        assert f"IRSC@{float(threshold)} " in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["eval", "scan"])
    @pytest.mark.parametrize("kind", ["empty", "truncated", "text", "npy"])
    def test_file_that_is_not_an_archive_is_a_model_file_error_record(
        self, command, kind, synthetic_corpus_path, model_path, scan_repo, tmp_path, capsys
    ):
        path = tmp_path / "model.npz"
        if kind == "npy":
            with open(path, "wb") as fh:
                np.save(fh, np.zeros(3))
        else:
            model = Path(model_path).read_bytes()
            path.write_bytes({"empty": b"", "truncated": model[: len(model) // 2],
                              "text": b'{"format_version": 3}\n'}[kind])
        argv = {
            "eval": ["eval", "--corpus", synthetic_corpus_path, "--model", str(path)],
            "scan": ["scan", "--repo", str(scan_repo), "--model", str(path)],
        }[command]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert json.loads(err.strip().splitlines()[-1]) == {
            "error": "modelfileerror", "detail": f"not a model file: {path} is not a zip archive"
        }
        assert "finding(s)" not in out and "Measure" not in out

    def test_train_defaults_are_the_config_defaults(
        self, synthetic_corpus_path, tmp_path, monkeypatch
    ):
        seen = []

        def capture(split, config, store):
            seen.append(config)
            raise ValueError("stop before training")

        monkeypatch.setattr(cli, "train", capture)
        argv = ["train", "--corpus", synthetic_corpus_path, "--out", str(tmp_path)]
        assert main(argv) == 1
        assert seen == [TrainConfig()]
        # Every config field is a train option, under the field's own name.
        options = vars(cli.build_parser().parse_args(argv))
        unmapped = {f.name for f in dataclasses.fields(TrainConfig)} - options.keys()
        assert unmapped == set()

    @pytest.mark.parametrize("mask", ["foo", ","])
    def test_bad_mask_is_a_value_error_record(self, synthetic_corpus_path, tmp_path, mask, capsys):
        argv = ["train", "--corpus", synthetic_corpus_path, "--out", str(tmp_path / "m.npz"),
                "--mask", mask]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "valueerror"
        assert not (tmp_path / "m.npz").exists()

    @pytest.mark.parametrize(
        "option, value, named",
        [
            ("--batch-size", "0", "batch_size must be at least 1, got 0"),
            ("--batch-size", "-1", "batch_size must be at least 1, got -1"),
            ("--dim", "0", "dim must be at least 1, got 0"),
            ("--epochs", "-1", "max_epochs must be at least 0, got -1"),
            ("--learning-rate", "nan", "learning_rate must be a finite number above 0"),
        ],
    )
    def test_out_of_range_option_is_a_value_error_record(
        self, synthetic_corpus_path, tmp_path, option, value, named, capsys
    ):
        argv = ["train", "--corpus", synthetic_corpus_path, "--out", str(tmp_path / "m.npz"),
                option, value]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "valueerror"
        assert named in record["detail"]
        assert not (tmp_path / "m.npz").exists()

    def test_malformed_model_file_is_a_model_file_error_record(
        self, synthetic_corpus_path, model_path, tmp_path, capsys
    ):
        with np.load(model_path) as archive:
            arrays = {name: archive[name] for name in archive.files if name != "mlp_b1"}
        path = str(tmp_path / "model.npz")
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        assert main(["eval", "--corpus", synthetic_corpus_path, "--model", path]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "modelfileerror"
        assert "mlp_b1" in record["detail"]

    def test_mlp_layer_cut_short_is_a_model_file_error_record(self, tmp_path, capsys):
        data = Path(__file__).parent / "data"
        with np.load(data / "float64_model.npz") as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["mlp_w1"] = arrays["mlp_w1"][:7]
        path = str(tmp_path / "model.npz")
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        argv = ["eval", "--corpus", str(data / "float64_model_corpus.jsonl"), "--model", path]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "modelfileerror"
        assert "'mlp_w1' of shape (7, 8) and 'mlp_b1' of shape (8,) for 8 inputs" in record["detail"]

    def test_malformed_model_config_is_a_model_file_error_record(
        self, synthetic_corpus_path, model_path, tmp_path, capsys
    ):
        with np.load(model_path) as archive:
            meta = read_meta(archive)
            arrays = {name: archive[name] for name in archive.files if name != "meta"}
        meta["config"]["component_mask"] = 5
        path = str(tmp_path / "model.npz")
        with open(path, "wb") as fh:
            np.savez(fh, meta=encode_meta(meta), **arrays)
        assert main(["eval", "--corpus", synthetic_corpus_path, "--model", path]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "modelfileerror"
        assert "component_mask" in record["detail"]

    @pytest.mark.parametrize("command", ["eval", "scan"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_is_a_model_file_error_record(
        self, command, value, synthetic_corpus_path, model_path, scan_repo, tmp_path, capsys
    ):
        with np.load(model_path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["mlp_w0"] = arrays["mlp_w0"].copy()
        arrays["mlp_w0"][1, 2] = value
        path = str(tmp_path / "model.npz")
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        argv = {
            "eval": ["eval", "--corpus", synthetic_corpus_path, "--model", path],
            "scan": ["scan", "--repo", str(scan_repo), "--model", path],
        }[command]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert json.loads(err.strip().splitlines()[-1]) == {
            "error": "modelfileerror", "detail": "array 'mlp_w0' holds a non-finite value"
        }
        assert "finding(s)" not in out and "Measure" not in out

    def test_eval_without_targets_errors(self, synthetic_corpus_path, capsys):
        code = main(["eval", "--corpus", synthetic_corpus_path])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "nothing to evaluate" in record["detail"]

    def test_train_too_few_samples(self, tmp_path, capsys):
        path = tmp_path / "tiny.jsonl"
        write_corpus(make_separable_corpus(4, seed=1), str(path))
        code = main(["train", "--corpus", str(path), "--out", str(tmp_path / "m.npz")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "too_few_samples"

    def test_corrupt_corpus_schema_violation(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"nope": 1}\n', encoding="utf-8")
        code = main(["eval", "--corpus", str(path), "--baselines"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["error"] == "schema_violation"


class TestBrokenHistory:
    """git log failing part way is an error record and exit 1, not a short history."""

    @pytest.mark.parametrize("stage", ["mine", "scan"])
    def test_stage_fails_with_gits_error(self, stage, broken_repo, model_path, tmp_path, capsys):
        repo, blob = broken_repo
        argv = {
            "mine": ["mine", "--repo", str(repo), "--out", str(tmp_path / "commits.jsonl")],
            "scan": ["scan", "--repo", str(repo), "--model", model_path],
        }[stage]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert json.loads(err.strip().splitlines()[-1]) == {
            "error": "git_failed", "detail": f"fatal: unable to read {blob}"
        }
        assert "mined" not in out and "finding(s)" not in out

    @pytest.mark.parametrize("before", [None, "{}\n"], ids=["no-file", "file"])
    def test_failed_mine_leaves_out_as_it_was(self, before, broken_repo, tmp_path):
        repo, _ = broken_repo
        out = tmp_path / "commits.jsonl"
        if before is not None:
            out.write_text(before, encoding="utf-8")
        assert main(["mine", "--repo", str(repo), "--out", str(out)]) == 1
        assert (out.read_text(encoding="utf-8") if out.exists() else None) == before
        assert not (tmp_path / "commits.jsonl.tmp").exists()


class TestOutputPaths:
    """Every stage replaces its output whole and refuses a path that is not a file."""

    @pytest.mark.parametrize("stage", ["build", "train", "eval", "scan"])
    def test_directory_is_a_value_error_record_and_left_untouched(
        self, stage, pipeline_repo, synthetic_corpus_path, model_path, scan_repo, tmp_path, capsys
    ):
        commits = tmp_path / "commits.jsonl"
        write_records(map(vars, mine_repository(pipeline_repo)), str(commits))
        out = tmp_path / "out"
        out.mkdir()
        (out / "keep.txt").write_text("kept\n", encoding="utf-8")
        argv = {
            "build": ["build", "--in", str(commits), "--out", str(out), "--lang", "python"],
            "train": ["train", "--corpus", synthetic_corpus_path, "--out", str(out),
                      "--epochs", "1"],
            "eval": ["eval", "--corpus", synthetic_corpus_path, "--baselines",
                     "--records", str(out)],
            "scan": ["scan", "--repo", str(scan_repo), "--model", model_path,
                     "--report", str(out)],
        }[stage]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1]) == {
            "error": "valueerror", "detail": f"{out} is not a regular file"
        }
        assert [p.name for p in out.iterdir()] == ["keep.txt"]
        assert (out / "keep.txt").read_text(encoding="utf-8") == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["commits.jsonl", "out"]


class TestScanCommand:
    def test_scan_reports_findings(self, scan_repo, model_path, tmp_path, capsys):
        report_path = str(tmp_path / "findings.jsonl")
        code = main(
            ["scan", "--repo", str(scan_repo), "--model", model_path, "--report", report_path]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2 finding(s)" in out
        assert "potential_obsolete" in out
        assert "intermediate_obsolete" in out
        rows = [json.loads(line) for line in open(report_path, encoding="utf-8")]
        assert len(rows) == 2

    def test_scan_missing_model_file(self, scan_repo, tmp_path, capsys):
        code = main(["scan", "--repo", str(scan_repo), "--model", str(tmp_path / "no.npz")])
        assert code == 1


class TestExternalBackend:
    """train --backend external --vectors, then eval and scan with that model."""

    @pytest.fixture(scope="class")
    def external(self, tmp_path_factory, synthetic_corpus_path, scan_repo):
        # Vectors for every corpus text and for the scan's candidates, which
        # are planted as resolved so that the model reports them.
        root = tmp_path_factory.mktemp("external")
        candidates = [
            dataclasses.replace(sample, label=Label.POSITIVE, todo_line_kind=LineKind.REMOVED)
            for sample, _, _ in candidate_triples(mine_repository(str(scan_repo)))
        ]
        vectors = planted_vectors(read_corpus(synthetic_corpus_path) + candidates)
        vectors_path, model_path = str(root / "vectors.txt"), str(root / "model.npz")
        write_external_vectors(vectors_path, vectors.items())
        argv = ["train", "--corpus", synthetic_corpus_path, "--out", model_path,
                "--backend", "external", "--vectors", vectors_path,
                "--epochs", "30", "--validate-every", "10", "--seed", "3"]
        assert main(argv) == 0
        return vectors_path, model_path

    def scorer(self, external):
        vectors_path, model_path = external
        model, store = load_model(model_path), ExternalVectorStore.read(vectors_path)
        return model, lambda samples: predict_scores(samples, model, store)

    def test_model_file_is_a_float32_external_model(self, external):
        model, _ = self.scorer(external)
        assert model.config.backend == "external" and model.encoders == {}
        assert {a.dtype for a in model.arrays().values()} == {np.dtype(np.float32)}

    def test_eval_records_the_scores_of_the_model_and_vectors(
        self, external, synthetic_corpus_path, tmp_path
    ):
        vectors_path, model_path = external
        records = str(tmp_path / "records.jsonl")
        argv = ["eval", "--corpus", synthetic_corpus_path, "--model", model_path,
                "--vectors", vectors_path, "--records", records]
        assert main(argv) == 0
        test = list(split_dataset(read_corpus(synthetic_corpus_path), seed=0).test)
        statuses = [status_of(score) for score in self.scorer(external)[1](test)]
        report = metrics(
            confusion(statuses, [s.label for s in test]),
            method="classifier",
            dataset=synthetic_corpus_path,
        )
        rows = [json.loads(line) for line in open(records, encoding="utf-8")]
        assert rows == [report_record(report)]
        assert report.f1 == 1.0

    def test_scan_reports_what_the_model_and_vectors_score(self, external, scan_repo, tmp_path):
        vectors_path, model_path = external
        report = str(tmp_path / "findings.jsonl")
        argv = ["scan", "--repo", str(scan_repo), "--model", model_path,
                "--vectors", vectors_path, "--report", report]
        assert main(argv) == 0
        expected = str(tmp_path / "expected.jsonl")
        write_findings(scan_repository(str(scan_repo), self.scorer(external)[1]), expected)
        assert open(report, encoding="utf-8").read() == open(expected, encoding="utf-8").read()
        kinds = [json.loads(line)["classification"] for line in open(report, encoding="utf-8")]
        assert sorted(kinds) == ["intermediate_obsolete", "potential_obsolete"]

    @pytest.mark.parametrize("command", ["train", "eval", "scan"])
    def test_missing_vectors_is_a_value_error_record(
        self, external, command, synthetic_corpus_path, scan_repo, tmp_path, capsys
    ):
        _, model_path = external
        argv = {
            "train": ["train", "--corpus", synthetic_corpus_path, "--backend", "external",
                      "--out", str(tmp_path / "m.npz")],
            "eval": ["eval", "--corpus", synthetic_corpus_path, "--model", model_path],
            "scan": ["scan", "--repo", str(scan_repo), "--model", model_path],
        }[command]
        assert main(argv) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {
            "error": "valueerror", "detail": "the external backend requires --vectors"
        }


# Runs the console entry point on a command that fails at once, then reports
# whether numpy had loaded before and after, and the BLAS thread variables.
ENTRY_SCRIPT = """
import json, os, sys
import staletodo.__main__ as entry
before = "numpy" in sys.modules
code = entry.main(["eval", "--corpus", "missing.jsonl", "--model", "missing.npz"])
print(json.dumps({
    "code": code,
    "numpy_before": before,
    "numpy_after": "numpy" in sys.modules,
    "env": {name: os.environ.get(name) for name in entry.BLAS_THREAD_VARIABLES},
}))
"""


def run_entry(tmp_path, **env_vars):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    env.update(env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", ENTRY_SCRIPT], env=env, cwd=tmp_path,
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


class TestConsoleEntry:
    def test_blas_threads_default_to_one_and_a_set_value_is_kept(self, tmp_path):
        report = run_entry(tmp_path)
        assert report["code"] == 1
        assert report["numpy_after"]
        assert report["env"] == dict.fromkeys(BLAS_THREAD_VARIABLES, "1")
        report = run_entry(tmp_path, OPENBLAS_NUM_THREADS="2")
        assert report["env"] == {**dict.fromkeys(BLAS_THREAD_VARIABLES, "1"),
                                 "OPENBLAS_NUM_THREADS": "2"}

    def test_importing_the_package_loads_no_numpy(self, tmp_path):
        """The defaults reach BLAS only if numpy loads after them."""
        assert run_entry(tmp_path)["numpy_before"] is False


def per_threshold_sweep(val, space):
    """The sweep as one per-sample evaluation per threshold: the reference."""
    best_threshold, best_f1 = 0.3, -1.0
    for i in range(1, 20):
        threshold = i / 20
        report = per_sample_evaluate(lambda s: irsc(s, space, threshold), val)
        f1 = -1.0 if report.f1 is None else report.f1
        if f1 > best_f1:
            best_threshold, best_f1 = threshold, f1
    return best_threshold


def test_irsc_sweep_matches_per_threshold_evaluate():
    picked = set()
    for seed in range(40):
        rng = random.Random(seed)
        samples = [random_sample(rng, i) for i in range(rng.randint(10, 60))]
        train, val = samples[: len(samples) // 2], samples[len(samples) // 2 :]
        space = TfidfSpace(background_documents(train))
        threshold = cli._sweep_irsc(val, space)
        assert threshold == per_threshold_sweep(val, space)
        picked.add(threshold)
    assert len(picked) > 3  # the workloads exercise more than one winner


def test_irsc_sweep_without_a_defined_f1_keeps_the_default():
    # With no positive in the split, recall and so F1 are undefined at every threshold.
    rng = random.Random(5)
    val = [
        dataclasses.replace(random_sample(rng, i), label=Label.NEGATIVE,
                            todo_line_kind=LineKind.CONTEXT)
        for i in range(20)
    ]
    assert cli._sweep_irsc(val, TfidfSpace()) == 0.3


def reference_reports(test, scores, space, threshold, dataset):
    """eval's rows, each from a predictor run per sample (per_sample_evaluate),
    the decision rules written out here."""
    by_sample = dict(zip(map(id, test), scores))

    def verdict(resolved):
        return Status.RESOLVED if resolved else Status.UNRESOLVED

    classifier = per_sample_evaluate(
        lambda s: verdict(by_sample[id(s)] >= 0.5), test, "classifier", dataset
    )
    auc, average_precision = ranking(scores, [s.label for s in test])
    reports = [dataclasses.replace(classifier, auc=auc, average_precision=average_precision)]
    for name, fn in (("TCO", bl.tco), ("TMO", bl.tmo), ("TCMO", bl.tcmo)):
        for suffix, stemming in (("", True), (" (no stem)", False)):
            predictor = lambda s, fn=fn, stemming=stemming: fn(s, use_stemming=stemming)
            reports.append(per_sample_evaluate(predictor, test, name + suffix, dataset))

    def irsc_verdict(s):
        similarity = cosine(*space.pair_vectors(s.todo_comment, added_lines_text(s.code_change)))
        return verdict(similarity >= threshold)

    reports.append(per_sample_evaluate(irsc_verdict, test, f"IRSC@{threshold}", dataset))
    return reports


@pytest.mark.parametrize("seed, irsc_option", [
    (0, ["--irsc-threshold", "0.1"]),
    (1, []),
    (2, ["--irsc-threshold", "0.45"]),
    (3, ["--irsc-sweep"]),
])
def test_every_eval_row_equals_the_per_sample_reference(seed, irsc_option, tmp_path, capsys):
    rng = random.Random(seed)
    corpus, model, records = (str(tmp_path / name)
                              for name in ("corpus.jsonl", "model.npz", "records.jsonl"))
    write_corpus([random_sample(rng, i) for i in range(rng.randint(40, 90))], corpus)
    argv = ["train", "--corpus", corpus, "--out", model, "--epochs", "3", "--dim", "8",
            "--min-freq", "1", "--validate-every", "4", "--seed", str(seed)]
    assert main(argv) == 0
    capsys.readouterr()
    argv = ["eval", "--corpus", corpus, "--model", model, "--baselines", "--seed", str(seed),
            "--records", records, *irsc_option]
    assert main(argv) == 0
    out = capsys.readouterr().out

    split = split_dataset(read_corpus(corpus), seed=seed)
    test = list(split.test)
    space = TfidfSpace(background_documents(list(split.train)))
    if irsc_option == ["--irsc-sweep"]:
        threshold = per_threshold_sweep(list(split.val), space)
    else:
        threshold = float(irsc_option[1]) if irsc_option else 0.3
    expected = reference_reports(
        test, predict_scores(test, load_model(model)), space, threshold, corpus
    )
    rows = [json.loads(line) for line in open(records, encoding="utf-8")]
    assert rows == [report_record(report) for report in expected]
    assert format_report_table(expected) in out
