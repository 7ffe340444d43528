"""Labeling rules, dataset splitting and corpus persistence."""

import json
import random

import pytest

from helpers import MIXED_LANGUAGE_COMMIT, PYTHON_ONLY_COMMIT, make_sample
from staletodo.comments import Language, TodoComment
from staletodo import corpus
from staletodo.corpus import (
    MAX_DIFF_BYTES,
    Label,
    SchemaViolation,
    TooFewSamples,
    TripleSample,
    build_triples,
    corpus_stats,
    extract_triple,
    label_triple,
    read_corpus,
    render_stats,
    split_dataset,
    write_corpus,
)
from staletodo.diffs import LineKind, RawCommit


def commit_with_diff(body_lines, commit_id="abc1234", message="do things."):
    body = "\n".join(body_lines)
    n_old = sum(1 for l in body_lines if not l.startswith("+"))
    n_new = sum(1 for l in body_lines if not l.startswith("-"))
    diff = (
        "diff --git a/f.py b/f.py\n"
        "--- a/f.py\n"
        "+++ b/f.py\n"
        f"@@ -1,{n_old} +1,{n_new} @@\n" + body + "\n"
    )
    return RawCommit(commit_id=commit_id, message=message, diff_text=diff, repo="r")


def mentions_todo(commit):
    """extract_triple returns None exactly when the diff does not mention TODO."""
    return extract_triple(commit, (Language.PYTHON,)) is not None


class TestIdentifyTodoCommits:
    def test_kept_when_todo_present(self):
        assert mentions_todo(commit_with_diff(["+ # TODO: fix"]))

    def test_dropped_without_todo(self):
        assert not mentions_todo(commit_with_diff(["+ x = 1"]))

    def test_case_insensitive(self):
        for word in ("todo", "ToDo", "TODO"):
            assert mentions_todo(commit_with_diff([f"+ # {word} thing"]))

    def test_seeded_subset_passes_exactly(self):
        rng = random.Random(23)
        seeded = set(rng.sample(range(100), 37))
        commits = []
        for i in range(100):
            line = "+ # TODO: item" if i in seeded else "+ x = 1"
            commits.append(commit_with_diff([line], commit_id=f"c{i:07d}"))
        kept = [commit for commit in commits if mentions_todo(commit)]
        assert {c.commit_id for c in kept} == {f"c{i:07d}" for i in sorted(seeded)}
        assert len(kept) == 37


def _triple(diff_lines, language=Language.PYTHON):
    return extract_triple(commit_with_diff(diff_lines), (language,))


class TestLabelTriple:
    def test_removed_todo_is_positive(self):
        sample, _, _ = _triple(
            [" def send(msg):", "-    # TODO: log the message", "+    logging.info(msg)", " dispatch(msg)"]
        )
        assert sample.label is Label.POSITIVE
        assert sample.todo_line_kind is LineKind.REMOVED

    def test_context_todo_is_negative(self):
        sample, _, _ = _triple(
            [" # TODO: evict stale entries", "+prune(entries)", " def get(key):"]
        )
        assert sample.label is Label.NEGATIVE
        assert sample.todo_line_kind is LineKind.CONTEXT

    def test_added_todo_is_ignored(self):
        # "added_kind" is the drop that counts a first-time TODO.
        assert _triple(["+    # TODO: handle errors", "+    risky()", " def run():"]) == "added_kind"

    def test_kinds_outside_the_request_dropped_before_association(self):
        # The removed TODO has no change within three lines: all kinds reach
        # association and fail there, a context-only request stops before it.
        body = ["-    # TODO: drop this", " a", " b", " c", " d", "+e()"]
        assert _triple(body) == "unassociated"
        commit = commit_with_diff(body)
        assert extract_triple(commit, (Language.PYTHON,), kinds=(LineKind.CONTEXT,)) == "other_kind"

    def test_totality_over_kinds(self):
        for kind in LineKind:
            todo = TodoComment("todo x", kind, Language.PYTHON, 0, 0, len("# todo x"), 0, 0)
            result = label_triple(todo, "+y = 1", "m.")
            if kind is LineKind.ADDED:
                assert result is None
            elif kind is LineKind.REMOVED:
                assert result.label is Label.POSITIVE
            else:
                assert result.label is Label.NEGATIVE


class TestSampleInvariants:
    def test_label_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TripleSample("+x", "todo", "m.", Label.NEGATIVE, "r", "c", LineKind.REMOVED)
        with pytest.raises(ValueError):
            TripleSample("+x", "todo", "m.", Label.POSITIVE, "r", "c", LineKind.CONTEXT)

    def test_empty_fields_rejected(self):
        with pytest.raises(ValueError):
            TripleSample("", "todo", "m.", Label.POSITIVE, "r", "c", LineKind.REMOVED)


class TestSplitDataset:
    def _samples(self, n):
        return [make_sample(commit_id=f"c{i:06d}") for i in range(n)]

    def test_exact_hundred(self):
        split = split_dataset(self._samples(100), seed=1)
        assert (len(split.train), len(split.val), len(split.test)) == (80, 10, 10)

    def test_remainder_goes_to_train(self):
        split = split_dataset(self._samples(101), seed=1)
        assert (len(split.train), len(split.val), len(split.test)) == (81, 10, 10)

    def test_same_seed_identical(self):
        samples = self._samples(60)
        a = split_dataset(samples, seed=9)
        b = split_dataset(samples, seed=9)
        assert a == b

    def test_different_seed_differs(self):
        samples = self._samples(200)
        a = split_dataset(samples, seed=1)
        b = split_dataset(samples, seed=2)
        assert a.train != b.train

    def test_too_few(self):
        with pytest.raises(TooFewSamples):
            split_dataset(self._samples(9), seed=0)

    def test_invariants_across_sizes(self):
        for n in list(range(10, 61)) + [99, 100, 101, 105, 109, 115, 500]:
            samples = self._samples(n)
            split = split_dataset(samples, seed=n)
            ids = lambda chunk: {s.commit_id for s in chunk}
            train, val, test = ids(split.train), ids(split.val), ids(split.test)
            assert len(train) + len(val) + len(test) == n
            assert train.isdisjoint(val) and train.isdisjoint(test) and val.isdisjoint(test)
            assert train | val | test == ids(samples)
            assert abs(len(split.train) - 0.8 * n) <= 1
            assert abs(len(split.val) - 0.1 * n) <= 1
            assert abs(len(split.test) - 0.1 * n) <= 1


class TestCorpusRoundTrip:
    def test_empty_list(self, tmp_path):
        path = str(tmp_path / "empty.jsonl")
        assert write_corpus([], path) == 0
        assert read_corpus(path) == []

    def test_thousand_random_samples_lossless(self, tmp_path):
        rng = random.Random(17)
        alphabet = "abc xyz\té世 ()#+-"
        samples = []
        for i in range(1000):
            text = lambda: "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 30))) or "x"
            label = rng.choice((Label.POSITIVE, Label.NEGATIVE))
            samples.append(
                TripleSample(
                    code_change="+" + text() + "\n-" + text(),
                    todo_comment="todo " + text(),
                    commit_msg=text() + ".",
                    label=label,
                    repo=text(),
                    commit_id=f"{i:07x}",
                    todo_line_kind=LineKind.REMOVED
                    if label is Label.POSITIVE
                    else LineKind.CONTEXT,
                )
            )
        path = str(tmp_path / "corpus.jsonl")
        write_corpus(samples, path)
        assert read_corpus(path) == samples

    def test_order_preserved(self, tmp_path):
        samples = [make_sample(commit_id=f"c{i}") for i in range(20)]
        path = str(tmp_path / "c.jsonl")
        write_corpus(samples, path)
        assert [s.commit_id for s in read_corpus(path)] == [s.commit_id for s in samples]

    def test_missing_label_raises_schema_violation(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {
            "repo": "r",
            "commit_id": "c",
            "todo_comment": "todo x",
            "code_change": "+y",
            "commit_msg": "m.",
            "todo_line_kind": "context",
        }
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")
        with pytest.raises(SchemaViolation) as exc:
            read_corpus(str(path))
        assert exc.value.line_no == 1
        assert "label" in str(exc.value)

    def test_text_field_that_is_not_a_string_raises_schema_violation(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = {
            "repo": "r",
            "commit_id": "c",
            "todo_comment": "todo x",
            "code_change": "+y",
            "commit_msg": "m.",
            "label": "negative",
            "todo_line_kind": "context",
        }
        bad = {**record, "code_change": 5}
        path.write_text(json.dumps(record) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
        with pytest.raises(SchemaViolation) as exc:
            read_corpus(str(path))
        assert exc.value.line_no == 2
        assert "code_change" in str(exc.value)

    def test_bad_json_reports_line(self, tmp_path):
        good = make_sample()
        path = tmp_path / "bad2.jsonl"
        write_corpus([good], str(path))
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        with pytest.raises(SchemaViolation) as exc:
            read_corpus(str(path))
        assert exc.value.line_no == 2

    def test_one_record_per_line(self, tmp_path):
        samples = [make_sample(cc="+multi\n-line\n text", commit_id=f"c{i}") for i in range(5)]
        path = tmp_path / "lines.jsonl"
        write_corpus(samples, str(path))
        assert len(path.read_text(encoding="utf-8").splitlines()) == 5


class TestStats:
    def test_counts_match_persisted_file(self, tmp_path):
        samples = [
            make_sample(label=Label.POSITIVE if i % 2 == 0 else Label.NEGATIVE, commit_id=f"c{i}")
            for i in range(50)
        ]
        path = str(tmp_path / "c.jsonl")
        write_corpus(samples, path)
        reread = read_corpus(path)
        stats_mem = corpus_stats(samples, todo_commits=70)
        stats_file = corpus_stats(reread, todo_commits=70)
        assert stats_mem == stats_file
        assert stats_mem.positives + stats_mem.negatives == (
            stats_mem.train_size + stats_mem.val_size + stats_mem.test_size
        )

    def test_sizes_are_the_split_sizes(self):
        for n in range(40):
            samples = [make_sample(commit_id=f"c{i}") for i in range(n)]
            stats = corpus_stats(samples, todo_commits=n)
            if n < 10:
                assert (stats.train_size, stats.val_size, stats.test_size) == (n, 0, 0)
                continue
            split = split_dataset(samples, seed=n)
            assert (stats.train_size, stats.val_size, stats.test_size) == (
                len(split.train), len(split.val), len(split.test)
            )

    def test_render_mirrors_table_rows(self):
        stats = corpus_stats([make_sample(commit_id=f"c{i}") for i in range(20)], 33)
        text = render_stats(stats)
        for row in ("# TODO Commits", "# Positive samples", "# Negative samples",
                    "# Train Set", "# Val&Test Set"):
            assert row in text


def commit_of_size(byte_count, diff_lines=(" # TODO: nearby", "+added()")):
    """A commit whose diff is padded after its hunk, with "é" (two UTF-8
    bytes) and at most one "x", to exactly byte_count UTF-8 bytes."""
    commit = commit_with_diff(list(diff_lines))
    pairs, odd = divmod(byte_count - len(commit.diff_text.encode("utf-8")), 2)
    return RawCommit(commit.commit_id, commit.message, commit.diff_text + "é" * pairs + "x" * odd)


class TestOversizeDiffs:
    def test_limit_is_inclusive_and_counts_utf8_bytes(self):
        at_limit = commit_of_size(MAX_DIFF_BYTES)
        over = commit_of_size(MAX_DIFF_BYTES + 1)
        assert len(over.diff_text) < MAX_DIFF_BYTES  # over by bytes, not characters
        assert extract_triple(at_limit, (Language.PYTHON,))[0].label is Label.NEGATIVE
        assert extract_triple(over, (Language.PYTHON,)) == "oversize"

    def test_counted_oversize_without_being_parsed(self, monkeypatch):
        def refuse(diff_text):
            raise AssertionError("an oversize diff was parsed")

        monkeypatch.setattr(corpus, "parse_unified_diff", refuse)
        malformed = commit_of_size(2 * MAX_DIFF_BYTES, diff_lines=("?# TODO: not a marker",))
        samples, counts = build_triples(
            [commit_of_size(MAX_DIFF_BYTES + 1), malformed], Language.PYTHON
        )
        assert samples == []
        assert (counts.todo_commits, counts.oversize, counts.parse_failures) == (2, 2, 0)


class TestBuildTriples:
    def test_counters_and_labels(self):
        commits = [
            commit_with_diff(
                [" def send(msg):", "-    # TODO: log the message", "+    logging.info(msg)"],
                commit_id="ca11111",
                message="Log message when sending.",
            ),
            commit_with_diff(["+ x = 1"], commit_id="cb22222"),  # no todo
            commit_with_diff(
                ["+# TODO: one", "+# TODO: two"], commit_id="cc33333"
            ),  # multiple todos
            commit_with_diff(
                [" # TODO: far away", " a", " b", " c", " d", "+changed()"],
                commit_id="cd44444",
            ),  # out of association range
            commit_with_diff(
                ["+    # TODO: brand new", "+    code()"], commit_id="ce55555"
            ),  # added-kind
            commit_with_diff(
                [" # TODO: nearby", "+added()"], commit_id="cf66666", message=""
            ),  # empty message
        ]
        samples, counts = build_triples(commits, Language.PYTHON)
        assert counts.commits_seen == 6
        assert counts.todo_commits == 5
        assert counts.no_single_todo == 1
        assert counts.unassociated == 1
        assert counts.added_kind == 1
        assert counts.empty_message == 1
        assert [s.label for s in samples] == [Label.POSITIVE]
        assert samples[0].commit_id == "ca11111"
        assert samples[0].todo_comment == "todo: log the message"
        assert samples[0].commit_msg == "log message when sending."

    def test_files_of_other_languages_are_not_lexed(self):
        samples, counts = build_triples([MIXED_LANGUAGE_COMMIT], Language.PYTHON)
        assert counts.no_single_todo == 0
        assert [(s.label, s.todo_comment) for s in samples] == [
            (Label.NEGATIVE, "todo: flush the queue")
        ]
        assert "+# todo: pin the version" in samples[0].code_change.splitlines()

    def test_python_file_not_lexed_as_java(self):
        samples, counts = build_triples([PYTHON_ONLY_COMMIT], Language.JAVA)
        assert samples == []
        assert counts.todo_commits == counts.no_single_todo == 1
