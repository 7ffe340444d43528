"""Word-overlap baselines and the TF-IDF cosine checker."""

import hashlib
import math
import random

from helpers import make_sample, random_sample
from staletodo.baselines import (
    STOPWORDS,
    TfidfSpace,
    added_lines_text,
    background_documents,
    cosine,
    irsc,
    irsc_similarity,
    overlap_tokens,
    stem,
    tco,
    tcmo,
    tmo,
    tokenize,
)
from staletodo.metrics import Status

STOPWORD_SHA256 = "8645c1a0d653a2b53c005e63bfef4b1e5686e72588d716604c1380e4dad94440"


class TestTokenization:
    def test_stopwords_pinned_by_checksum(self):
        digest = hashlib.sha256("\n".join(STOPWORDS).encode("utf-8")).hexdigest()
        assert digest == STOPWORD_SHA256

    def test_todo_and_stopwords_removed(self):
        assert overlap_tokens("TODO: log the message") == {"log", "message"}

    def test_identifier_splitting_golden(self):
        assert tokenize("include_strategies") == ["include", "strategie"]
        assert tokenize("getMessageId") == ["get", "message", "id"]
        assert tokenize("HTTPServer") == ["http", "server"]

    def test_stemmer_goldens(self):
        assert stem("running") == "runn"
        assert stem("strategies") == "strategie"
        assert stem("things") == "thing"
        assert stem("used") == "used"  # stem would fall below 3 chars
        assert stem("log") == "log"
        assert stem("classes") == "classe"

    def test_empty_text(self):
        assert overlap_tokens("") == frozenset()

    def test_unstemmed_variant(self):
        assert overlap_tokens("include_strategies", use_stemming=False) == {
            "include",
            "strategies",
        }


class TestOverlapBaselines:
    def test_tco_shared_token_resolved(self):
        sample = make_sample(cc="+    log(msg)", td="todo: log the message")
        assert tco(sample) is Status.RESOLVED

    def test_tco_disjoint_unresolved(self):
        sample = make_sample(cc="+alpha = beta", td="todo: purge the cache")
        assert tco(sample) is Status.UNRESOLVED

    def test_tco_documented_false_positive(self):
        # a shared identifier triggers TCO even when the task is unrelated
        sample = make_sample(
            cc="+work_id = message_id\n-job_id = message_id",
            td="todo: rename message_id field",
        )
        assert tco(sample) is Status.RESOLVED

    def test_tmo_fig5_style_message(self):
        sample = make_sample(
            td="todo: log the message", msg="log message when sending scheduled"
        )
        assert tmo(sample) is Status.RESOLVED

    def test_tmo_disjoint(self):
        sample = make_sample(td="todo: purge cache", msg="bump version.")
        assert tmo(sample) is Status.UNRESOLVED

    def test_tmo_empty_message_unresolved(self):
        sample = make_sample(td="todo: purge cache", msg=".")
        assert tmo(sample) is Status.UNRESOLVED

    def test_tcmo_disjunction_cases(self):
        resolved_cc = make_sample(cc="+purge()", td="todo purge", msg="other thing.")
        resolved_msg = make_sample(cc="+alpha()", td="todo purge", msg="purge it.")
        neither = make_sample(cc="+alpha()", td="todo purge", msg="other thing.")
        assert tcmo(resolved_cc) is Status.RESOLVED
        assert tcmo(resolved_msg) is Status.RESOLVED
        assert tcmo(neither) is Status.UNRESOLVED

    def test_tcmo_equals_boolean_or_oracle(self):
        rng = random.Random(99)
        for i in range(2000):
            sample = random_sample(rng, i)
            expected = (
                tco(sample) is Status.RESOLVED or tmo(sample) is Status.RESOLVED
            )
            assert (tcmo(sample) is Status.RESOLVED) is expected

    def test_deterministic(self):
        sample = make_sample()
        assert tco(sample) is tco(sample)
        assert tmo(sample) is tmo(sample)
        assert tcmo(sample) is tcmo(sample)


class TestAddedLines:
    def test_extracts_plus_lines(self):
        rendered = "+new()\n-old()\n ctx\n+more()"
        assert added_lines_text(rendered) == "new()\nmore()"

    def test_background_documents_shape(self):
        samples = [make_sample(cc="+a()\n-b()", td="todo x", commit_id="c1")]
        docs = background_documents(samples)
        assert docs == ["todo x", "a()"]


class TestIrsc:
    def test_identical_texts_cosine_one(self):
        sample = make_sample(td="flush the queue buffer", cc="+flush the queue buffer")
        space = TfidfSpace(["unrelated words here", "queue flush"])
        similarity = irsc_similarity(sample, space)
        assert math.isclose(similarity, 1.0, abs_tol=1e-12)
        assert irsc(sample, space, 1.0) is Status.RESOLVED

    def test_disjoint_vocabulary_cosine_zero(self):
        sample = make_sample(td="todo: flush the queue", cc="+alpha omega")
        assert irsc_similarity(sample, TfidfSpace()) == 0.0
        assert irsc(sample, TfidfSpace(), 0.01) is Status.UNRESOLVED

    def test_hand_computed_equal_tf_example(self):
        # collection: comment {alpha,beta}, added {beta,gamma},
        # background ["alpha"], ["gamma delta"]; every df = 2, idf = ln2.
        # cos = ln2^2 / (ln2*sqrt2)^2 = 0.5
        sample = make_sample(td="alpha beta", cc="+beta gamma")
        space = TfidfSpace(["alpha", "gamma delta"])
        similarity = irsc_similarity(sample, space)
        assert math.isclose(similarity, 0.5, rel_tol=1e-12)
        assert irsc(sample, space, 0.3) is Status.RESOLVED
        assert irsc(sample, space, 0.6) is Status.UNRESOLVED

    def test_reads_only_the_added_lines_of_the_code_change(self):
        # As the equal-tf example: context and removed lines add no token.
        sample = make_sample(td="alpha beta", cc=" alpha beta\n+beta gamma\n-alpha delta")
        space = TfidfSpace(["alpha", "gamma delta"])
        assert math.isclose(irsc_similarity(sample, space), 0.5, rel_tol=1e-12)

    def test_hand_computed_tf_weighted_example(self):
        # comment {beta:2, alpha:1}, added {beta:1, gamma:2}, same idf=ln2:
        # cos = 2*ln2^2 / (ln2*sqrt5)^2 = 0.4
        sample = make_sample(td="beta beta alpha", cc="+beta gamma gamma")
        space = TfidfSpace(["alpha", "gamma delta"])
        similarity = irsc_similarity(sample, space)
        assert math.isclose(similarity, 0.4, rel_tol=1e-12)

    def test_shared_everywhere_token_weighs_zero(self):
        # "beta" occurs in every doc of the collection -> idf 0 -> no signal
        sample = make_sample(td="beta alpha", cc="+beta gamma")
        space = TfidfSpace(["beta alpha", "beta gamma"])
        assert irsc_similarity(sample, space) == 0.0

    def test_monotone_in_threshold(self):
        rng = random.Random(41)
        space = TfidfSpace(["flush queue", "retry socket buffer"])
        for i in range(300):
            sample = random_sample(rng, i)
            verdicts = [irsc(sample, space, t / 10) for t in range(0, 11)]
            resolved_flags = [v is Status.RESOLVED for v in verdicts]
            # once unresolved at a threshold, never resolved at a higher one
            assert resolved_flags == sorted(resolved_flags, reverse=True)

    def test_cosine_always_in_unit_interval(self):
        rng = random.Random(43)
        space = TfidfSpace(["flush queue", "retry socket", "alpha beta gamma"])
        for i in range(300):
            sample = random_sample(rng, i)
            similarity = irsc_similarity(sample, space)
            assert 0.0 <= similarity <= 1.0 + 1e-12

    def test_cosine_zero_vector_defined_zero(self):
        assert cosine({}, {"a": 1.0}) == 0.0
        assert cosine({}, {}) == 0.0
