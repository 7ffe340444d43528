"""The one write path: records.replacing and records.write_records."""

import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    reference_write_commits,
    reference_write_corpus,
    reference_write_eval_records,
    reference_write_findings,
)
from staletodo.corpus import Label, TripleSample, write_corpus
from staletodo.diffs import LineKind, RawCommit
from staletodo.metrics import MetricReport, report_record
from staletodo.model import load_model, save_model
from staletodo.records import replacing, write_records
from staletodo.scan import FindingKind, ScanFinding, write_findings

DATA = Path(__file__).parent / "data"

text = st.text(max_size=12)
nonempty = st.text(min_size=1, max_size=12)
floats = st.floats()  # nan and the infinities too
maybe_floats = st.none() | floats

commits = st.builds(RawCommit, text, text, text, text)
samples = st.builds(
    lambda kinds, **texts: TripleSample(label=kinds[0], todo_line_kind=kinds[1], **texts),
    st.sampled_from([(Label.POSITIVE, LineKind.REMOVED), (Label.NEGATIVE, LineKind.CONTEXT)]),
    code_change=nonempty, todo_comment=nonempty, commit_msg=nonempty, repo=text, commit_id=text,
)
reports = st.builds(
    MetricReport, floats, maybe_floats, maybe_floats, maybe_floats, text, text,
    maybe_floats, maybe_floats,
)
findings = st.builds(
    ScanFinding, text, st.none() | st.integers(1, 10**6), text, text, floats,
    st.sampled_from(FindingKind),
)


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    """Two paths, the reference's and the writer's, reused by every example."""
    directory = tmp_path_factory.mktemp("records")
    return directory / "reference.jsonl", directory / "written.jsonl"


def _written(reference, writer, items, out):
    reference(items, str(out[0]))
    assert writer(items, str(out[1])) == len(items)
    return out[0].read_bytes(), out[1].read_bytes()


NON_ASCII = "todo: été 中 \U0001f600"


class TestTheFourLoopsAreOne:
    """write_records writes what each stage's own loop wrote."""

    @given(st.lists(commits, max_size=4))
    @example([RawCommit("c", NON_ASCII, "+é", NON_ASCII)])
    @settings(max_examples=60, deadline=None)
    def test_mined_commits(self, out, items):
        reference, written = _written(
            reference_write_commits, lambda c, p: write_records(map(vars, c), p), items, out
        )
        assert reference == written

    @given(st.lists(samples, max_size=4))
    @example([TripleSample("+é", NON_ASCII, "fïx.", Label.POSITIVE, "r", "c", LineKind.REMOVED)])
    @settings(max_examples=60, deadline=None)
    def test_corpus(self, out, items):
        reference, written = _written(reference_write_corpus, write_corpus, items, out)
        assert reference == written

    @given(st.lists(findings, max_size=4))
    @example([ScanFinding("é.py", None, NON_ASCII, "c", float("nan"),
                          FindingKind.INTERMEDIATE_OBSOLETE)])
    @settings(max_examples=60, deadline=None)
    def test_findings(self, out, items):
        reference, written = _written(reference_write_findings, write_findings, items, out)
        assert reference == written

    @given(st.lists(reports, max_size=4))
    @example([MetricReport(0.5, None, 1.0, float("inf"), NON_ASCII, "cörpus.jsonl")])
    @settings(max_examples=60, deadline=None)
    def test_eval_records_differ_only_in_escaping_non_ascii_text(self, out, items):
        reference, written = _written(
            reference_write_eval_records,
            lambda r, p: write_records(map(report_record, r), p), items, out,
        )
        # The old loop wrote \u escapes; written is UTF-8, the same for ASCII text.
        # Split at "\n" only: str.splitlines also splits at "\x85" and "\u2028".
        lines = written.decode("utf-8").split("\n")[:-1]
        assert [json.dumps(json.loads(line)) for line in lines] == reference.decode().split("\n")[:-1]
        if written.isascii():
            assert reference == written


class TestReplacing:
    def test_a_path_that_is_not_a_regular_file_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="not a regular file"):
            write_records(iter([]), str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("before", [None, b'{"a": 0}\n'], ids=["no-file", "file"])
    def test_a_record_stream_that_raises_leaves_the_old_file(self, tmp_path, before):
        path = tmp_path / "out.jsonl"
        if before is not None:
            path.write_bytes(before)

        def records():
            yield {"a": 1}
            raise RuntimeError("cut short")

        with pytest.raises(RuntimeError, match="cut short"):
            write_records(records(), str(path))
        assert (path.read_bytes() if path.exists() else None) == before
        assert [p.name for p in tmp_path.iterdir()] == ([] if before is None else ["out.jsonl"])

    def test_binary_block_replaces_the_file_whole(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"old and longer")
        with replacing(str(path), binary=True) as fh:
            fh.write(b"new")
            assert path.read_bytes() == b"old and longer"
        assert path.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["blob.bin"]

    def test_a_symlink_keeps_pointing_at_its_file_which_is_replaced(self, tmp_path):
        target = tmp_path / "target.jsonl"
        target.write_text("old\n", encoding="utf-8")
        link = tmp_path / "link.jsonl"
        link.symlink_to(target.name)
        assert write_records([{"a": 1}], str(link)) == 1
        assert link.is_symlink()
        assert target.read_text(encoding="utf-8") == '{"a": 1}\n'
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.jsonl", "target.jsonl"]

    def test_save_model_that_fails_part_way_leaves_the_old_model(self, tmp_path, monkeypatch):
        model = load_model(str(DATA / "float64_model.npz"))
        path = tmp_path / "model.npz"
        save_model(model, str(path))
        before = path.read_bytes()
        savez = np.savez

        def savez_then_fail(fh, **arrays):
            archive = io.BytesIO()
            savez(archive, **arrays)
            fh.write(archive.getvalue()[: len(archive.getvalue()) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="No space left"):
            save_model(model, str(path))
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]
        assert load_model(str(path)).arrays().keys() == model.arrays().keys()
