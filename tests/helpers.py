"""Shared builders for tests: documents, samples, synthetic corpora."""

from __future__ import annotations

import importlib.util
import json
import random
import subprocess
from pathlib import Path

import numpy as np

from staletodo.corpus import Label, TripleSample
from staletodo.diffs import DiffDocument, LineKind, RawCommit
from staletodo.metrics import confusion, metrics, report_record
from staletodo.model.network import (
    bce_loss,
    embedding_gradient,
    forward,
    init_mlp,
    mean_pool,
    mlp_backward,
)
from staletodo.model.optimizer import RowGradient
from staletodo.model.vocab import PAD_INDEX, UNK_INDEX, Vocab, tokenize_for_model


TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    """The benchmark's bench/tracing.py, loaded from its file."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def make_doc(specs, files=(("a.py", "a.py"),)):
    """One-file one-hunk document from [(marker_char, text), ...]."""
    lines = tuple(ch + text for ch, text in specs)
    return DiffDocument(lines, hunk_starts=(0, len(lines)), hunk_files=(0,), files=tuple(files))


def unified_diff(files):
    """Diff text of files, each a list of hunk bodies [(marker_char, text), ...].

    Also returns each body line's (file index, hunk index, position in its
    hunk), in diff order.
    """
    parts, places = [], []
    for file_index, hunks in enumerate(files):
        path = f"f{file_index}.py"
        parts += [f"diff --git a/{path} b/{path}", "index 1111111..2222222 100644",
                  f"--- a/{path}", f"+++ b/{path}"]
        for hunk_index, body in enumerate(hunks):
            n_old = sum(marker != "+" for marker, _ in body)
            n_new = sum(marker != "-" for marker, _ in body)
            parts.append(f"@@ -1,{n_old} +1,{n_new} @@")
            parts += [marker + text for marker, text in body]
            places += [(file_index, hunk_index, i) for i in range(len(body))]
    return "\n".join(parts) + "\n", places


def make_sample(
    cc="+x = 1",
    td="todo: fix it",
    msg="fix it.",
    label=Label.NEGATIVE,
    repo="test",
    commit_id="c000001",
):
    kind = LineKind.REMOVED if label is Label.POSITIVE else LineKind.CONTEXT
    return TripleSample(
        code_change=cc,
        todo_comment=td,
        commit_msg=msg,
        label=label,
        repo=repo,
        commit_id=commit_id,
        todo_line_kind=kind,
    )


# Vocabulary pools for the synthetic separable corpus. Positives plant the
# same resolution verb/object in comment, change and message; negatives use
# disjoint noise words in change and message.
RESOLVE_VERBS = (
    "flush", "retry", "log", "cache", "parse", "close", "merge", "purge",
    "trace", "batch",
)
OBJECTS = (
    "queue", "socket", "buffer", "token", "record", "stream", "config",
    "index", "handle", "worker",
)
NOISE_WORDS = (
    "alpha", "omega", "delta", "pivot", "quartz", "ember", "fable", "grain",
    "harbor", "inlet", "jetty", "kernel", "lantern", "meadow",
)


def make_separable_triple(rng: random.Random, positive: bool, serial: int) -> TripleSample:
    verb = rng.choice(RESOLVE_VERBS)
    obj = rng.choice(OBJECTS)
    todo = f"todo: {verb} the {obj}"
    filler = rng.choice(NOISE_WORDS)
    if positive:
        cc_lines = [
            f" def handle_{obj}():",
            f"+    {obj}.{verb}()",
            f"+    {verb}_done = True".lower(),
            f" {filler} = 1",
        ]
        msg = f"{verb} the {obj} properly."
        label = Label.POSITIVE
    else:
        w1, w2 = rng.sample(NOISE_WORDS, 2)
        cc_lines = [
            f" def handle_{obj}():",
            f"+    {w1} = {w2}",
            f"-    {w1} = 0",
            f" {filler} = 1",
        ]
        msg = f"update {w1} handling."
        label = Label.NEGATIVE
    return TripleSample(
        code_change="\n".join(cc_lines),
        todo_comment=todo,
        commit_msg=msg,
        label=label,
        repo="synthetic",
        commit_id=f"c{serial:06d}",
        todo_line_kind=LineKind.REMOVED if positive else LineKind.CONTEXT,
    )


def make_separable_corpus(n: int, seed: int) -> list[TripleSample]:
    rng = random.Random(seed)
    return [make_separable_triple(rng, positive=i % 2 == 0, serial=i) for i in range(n)]


def random_text(rng: random.Random, words=NOISE_WORDS, lo=1, hi=6) -> str:
    return " ".join(rng.choice(words) for _ in range(rng.randint(lo, hi)))


def random_sample(rng: random.Random, serial: int = 0) -> TripleSample:
    """Unstructured sample for truth-table style property tests."""
    pool = RESOLVE_VERBS + OBJECTS + NOISE_WORDS
    label = rng.choice((Label.POSITIVE, Label.NEGATIVE))
    return TripleSample(
        code_change="+" + random_text(rng, pool),
        todo_comment="todo " + random_text(rng, pool, 1, 4),
        commit_msg=random_text(rng, pool, 1, 4) + ".",
        label=label,
        repo="rand",
        commit_id=f"r{serial:06d}",
        todo_line_kind=LineKind.REMOVED if label is Label.POSITIVE else LineKind.CONTEXT,
    )


def diff_commit(files: dict[str, list[str]], commit_id: str, message: str = "do things.") -> RawCommit:
    """A commit whose diff has one hunk per file, from marked body lines."""
    parts = []
    for path, body in files.items():
        n_old = sum(1 for line in body if not line.startswith("+"))
        n_new = sum(1 for line in body if not line.startswith("-"))
        parts.append(
            f"diff --git a/{path} b/{path}\n--- a/{path}\n+++ b/{path}\n"
            f"@@ -1,{n_old} +1,{n_new} @@\n" + "\n".join(body) + "\n"
        )
    return RawCommit(commit_id=commit_id, message=message, diff_text="".join(parts), repo="r")


# A commit that adds a "#" TODO to a YAML file beside an untouched TODO in a
# Python file the same commit changes: only the Python TODO is a comment.
MIXED_LANGUAGE_COMMIT = diff_commit(
    {
        "c.py": [" # todo: flush the queue", "+queue.flush()", " queue.open()"],
        "c.yml": [" name: c", "+# todo: pin the version"],
    },
    commit_id="c0ffee1",
    message="flush the queue.",
)

# A Python-only commit whose TODO line holds "//", which opens a Java comment.
PYTHON_ONLY_COMMIT = diff_commit(
    {"d.py": [" half = n // 2  # todo: round half up", "+half += n % 2", " use(half)"]},
    commit_id="d0ffee2",
    message="round half up.",
)


GIT_BASE_ENV = {
    "GIT_AUTHOR_NAME": "Fixture Author",
    "GIT_AUTHOR_EMAIL": "fixture@example.com",
    "GIT_COMMITTER_NAME": "Fixture Author",
    "GIT_COMMITTER_EMAIL": "fixture@example.com",
    "GIT_CONFIG_GLOBAL": "/dev/null",
    "GIT_CONFIG_SYSTEM": "/dev/null",
    "GIT_CONFIG_NOSYSTEM": "1",
}


def git(repo: Path, *args: str, date: str | None = None) -> str:
    env = dict(GIT_BASE_ENV)
    env["PATH"] = "/usr/bin:/bin:/usr/local/bin"
    if date:
        env["GIT_AUTHOR_DATE"] = date
        env["GIT_COMMITTER_DATE"] = date
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def init_repo(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    git(path, "init", "-q")
    return path


def commit_all(repo: Path, message: str, serial: int) -> str:
    """Stage everything and commit with a pinned date; returns the hash."""
    date = f"2021-01-01T00:00:{serial:02d} +0000"
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", message, date=date)
    return git(repo, "rev-parse", "HEAD").strip()


def planted_vectors(samples, seed=0):
    """Synthetic 768-wide encoder outputs for each text of the samples, as
    {text: vector}: noise, with the sample's class planted in the first axis."""
    rng = np.random.default_rng(seed)
    vectors = {}
    for sample in samples:
        for text in (sample.code_change, sample.todo_comment, sample.commit_msg):
            vector = rng.normal(scale=0.01, size=768)
            vector[0] = 1.0 if sample.label is Label.POSITIVE else -1.0
            vectors[text] = vector
    return vectors


def read_meta(archive) -> dict:
    """The JSON header of an open model file: UTF-8 bytes, or a numpy string
    as files written before hold it."""
    return json.loads(archive["meta"].item())


def to_dense(grad: RowGradient) -> np.ndarray:
    """The (num_rows, dim) table of a RowGradient, in its values' dtype."""
    dense = np.zeros((grad.num_rows, grad.values.shape[1]), grad.values.dtype)
    dense[grad.rows] = grad.values
    return dense


def padded_ids(vocab: Vocab, text: str, max_len: int) -> list[int]:
    """Reference per-text rule: text's first max_len tokens as ids, unknown
    ones as UNK, padded with PAD to max_len."""
    ids = [vocab.index.get(t, UNK_INDEX) for t in tokenize_for_model(text)[:max_len]]
    return ids + [PAD_INDEX] * (max_len - len(ids))


def padded_matrix(vocab: Vocab, texts, max_len: int) -> np.ndarray:
    """Reference for Vocab.encode: padded_ids of each text, stacked, cut to
    the widest row's tokens, at least 1 column."""
    rows = np.array([padded_ids(vocab, text, max_len) for text in texts], np.int64)
    width = max(1, int(np.count_nonzero(rows != PAD_INDEX, axis=1).max()))
    return rows[:, :width]


def per_sample_evaluate(method, test, method_name="", dataset=""):
    """Reference for metrics.evaluate: run a predictor over each sample of
    the test set, then count the statuses against the labels."""
    preds = [method(sample) for sample in test]
    labels = [sample.label for sample in test]
    return metrics(confusion(preds, labels), method=method_name, dataset=dataset)


# The four JSONL loops that records.write_records replaced, kept as its
# reference: mine's commits, build's corpus, eval's records, scan's findings.
COMMIT_FIELDS = ("commit_id", "message", "diff_text", "repo")
CORPUS_FIELDS = (
    "repo", "commit_id", "todo_comment", "code_change", "commit_msg", "label", "todo_line_kind",
)


def reference_write_commits(commits, path):
    with open(path, "w", encoding="utf-8") as fh:
        for commit in commits:
            record = {name: getattr(commit, name) for name in COMMIT_FIELDS}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def reference_write_corpus(samples, path):
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            record = {name: getattr(sample, name) for name in CORPUS_FIELDS}
            fh.write(json.dumps(record, ensure_ascii=False, default=lambda e: e.value) + "\n")


def reference_write_eval_records(reports, path):
    with open(path, "w", encoding="utf-8") as fh:
        for report in reports:
            fh.write(json.dumps(report_record(report)) + "\n")


def reference_write_findings(findings, path):
    with open(path, "w", encoding="utf-8") as fh:
        for finding in findings:
            record = {**vars(finding), "classification": finding.classification.value}
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def gradient_check_instance(seed: int, fd_step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients
    on one random small model instance (three encoders plus MLP)."""
    rng = np.random.default_rng(seed)
    vocab_size = int(rng.integers(5, 10))
    dim = int(rng.integers(2, 9))
    hidden = tuple(int(rng.integers(2, 9)) for _ in range(3))
    batch = int(rng.integers(1, 4))
    max_len = 5

    tables = [rng.uniform(-0.5, 0.5, size=(vocab_size, dim)) for _ in range(3)]
    for table in tables:
        table[PAD_INDEX] = 0.0  # as init_encoder leaves it; training never moves it
    ids = [rng.integers(0, vocab_size, size=(batch, max_len)) for _ in range(3)]
    mlp = init_mlp(rng, dim * 3, hidden)
    # zero-init biases would park ReLU preactivations exactly on the kink
    # (non-differentiable, FD invalid); check at a generic point instead
    for b in mlp.biases:
        b += rng.uniform(-0.3, 0.3, size=b.shape)
    labels = rng.integers(0, 2, size=batch).astype(float)

    def loss_and_cache():
        parts = [mean_pool(ids[i], tables[i]) for i in range(3)]
        scores, cache = forward(parts, mlp)
        return bce_loss(scores, labels), cache

    _, cache = loss_and_cache()
    grads, d_input = mlp_backward(mlp, cache, labels)
    emb_grads = [
        to_dense(embedding_gradient(d_input[:, i * dim : (i + 1) * dim], ids[i], vocab_size, dim))
        for i in range(3)
    ]
    # The PAD row (row 0) is not a parameter: views of the other rows only.
    params = list(mlp.weights) + list(mlp.biases) + [t[PAD_INDEX + 1 :] for t in tables]
    analytic = list(grads.mlp_w) + list(grads.mlp_b) + [g[PAD_INDEX + 1 :] for g in emb_grads]

    worst = 0.0
    for p, g in zip(params, analytic):
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            index = it.multi_index
            original = p[index]
            p[index] = original + fd_step
            up, _ = loss_and_cache()
            p[index] = original - fd_step
            down, _ = loss_and_cache()
            p[index] = original
            fd = (up - down) / (2.0 * fd_step)
            a = float(g[index])
            err = abs(a - fd) / max(abs(a), abs(fd), 1e-5)
            worst = max(worst, err)
    return worst
