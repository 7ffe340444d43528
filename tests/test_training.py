"""Training loop behavior: learning, determinism, masking, divergence."""

import dataclasses
import random

import numpy as np
import pytest

from helpers import (
    make_sample,
    make_separable_corpus,
    padded_ids,
    planted_vectors,
    random_sample,
    read_meta,
)
from staletodo.corpus import DatasetSplit, Label, split_dataset
from staletodo.metrics import Status, confusion, metrics, status_of
from staletodo.model import (
    ExternalVectorStore,
    TrainConfig,
    predict,
    predict_scores,
    save_model,
    train,
)
from staletodo.model import training
from staletodo.model.optimizer import RowGradient, adam_step
from staletodo.model.network import (
    COMPONENT_ORDER,
    Component,
    default_hidden_sizes,
    init_encoder,
    init_mlp,
)
from staletodo.model.training import (
    MAX_LEN,
    SCORE_CHUNK,
    ModelParams,
    _encode_samples,
    _init_model,
    component_text,
    parse_mask,
)
from staletodo.model.vocab import PAD_INDEX, UNK_INDEX, build_vocab


def accuracy(samples, model, store=None):
    scores = predict_scores(samples, model, store)
    hits = sum(
        1
        for sample, score in zip(samples, scores)
        if (score >= 0.5) == (sample.label is Label.POSITIVE)
    )
    return hits / len(samples)


def planted_store(samples, seed=0):
    store = ExternalVectorStore()
    for text, vector in planted_vectors(samples, seed).items():
        store.add(text, vector)
    return store


def toy_split(n=20, seed=1):
    corpus = make_separable_corpus(n, seed=seed)
    return DatasetSplit(
        train=tuple(corpus[: n - 6]),
        val=tuple(corpus[n - 6 : n - 3]),
        test=tuple(corpus[n - 3 :]),
        seed=seed,
    )


FAST_CONFIG = dict(dim=16, validate_every=20, min_freq=1, seed=3)


class TestTrainConfig:
    def test_mask_must_be_non_empty(self):
        with pytest.raises(ValueError):
            TrainConfig(component_mask=frozenset())

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(backend="quantum")

    def test_external_backend_forces_768(self):
        config = TrainConfig(backend="external", dim=32)
        assert config.dim == 768

    def test_parse_mask(self):
        assert parse_mask("cc,td") == frozenset({Component.CC, Component.TD})
        assert parse_mask("msg") == frozenset({Component.MSG})
        with pytest.raises(ValueError):
            parse_mask("nope")


class TestLearning:
    def test_toy_separable_set_reaches_train_accuracy(self):
        split = toy_split(20)
        config = TrainConfig(max_epochs=200, **FAST_CONFIG)
        model, history = train(split, config)
        assert not history.diverged
        assert accuracy(list(split.train), model) >= 0.95

    def test_best_checkpoint_selected_earliest_on_ties(self):
        split = toy_split(20)
        config = TrainConfig(max_epochs=60, **FAST_CONFIG)
        model, history = train(split, config)
        best_f1 = max(
            (-1.0 if v.val_f1 is None else v.val_f1) for v in history.validations
        )
        first_best = next(
            v.batch
            for v in history.validations
            if (-1.0 if v.val_f1 is None else v.val_f1) == best_f1
        )
        assert history.best_batch == first_best

    def test_pad_rows_stay_exactly_zero(self):
        # mean_pool sums the PAD ids that fill a shorter text up to the
        # longest of its call with the tokens, relying on this.
        split = toy_split(20)
        model, history = train(split, TrainConfig(max_epochs=30, **FAST_CONFIG))
        assert history.final_batch > 0
        for encoder in model.encoders.values():
            pad_row = encoder.embedding[PAD_INDEX]
            assert pad_row.tobytes() == np.zeros_like(pad_row).tobytes()


class TestDeterminism:
    def test_same_seed_bit_identical_history_and_scores(self):
        split = toy_split(20)
        config = TrainConfig(max_epochs=30, **FAST_CONFIG)
        model_a, history_a = train(split, config)
        model_b, history_b = train(split, config)
        assert history_a.validations == history_b.validations
        assert history_a.best_batch == history_b.best_batch
        scores_a = predict_scores(list(split.test), model_a)
        scores_b = predict_scores(list(split.test), model_b)
        assert np.array_equal(scores_a, scores_b)

    def test_same_seed_writes_byte_identical_model_files(self, tmp_path):
        split = toy_split(20)
        config = TrainConfig(max_epochs=30, **FAST_CONFIG)
        paths = [tmp_path / "a.npz", tmp_path / "b.npz"]
        for path in paths:
            save_model(train(split, config)[0], str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seed_changes_history(self):
        split = toy_split(20)
        a = TrainConfig(max_epochs=30, dim=16, validate_every=20, min_freq=1, seed=3)
        b = TrainConfig(max_epochs=30, dim=16, validate_every=20, min_freq=1, seed=4)
        _, history_a = train(split, a)
        _, history_b = train(split, b)
        assert history_a.validations != history_b.validations


class TestEncoderVocabularies:
    def test_each_table_has_one_row_per_token_of_its_own_vocabulary(self):
        split = toy_split(20)
        model, _ = train(split, TrainConfig(max_epochs=2, **FAST_CONFIG))
        assert list(model.encoders) == list(COMPONENT_ORDER)
        for component, encoder in model.encoders.items():
            own = build_vocab([component_text(s, component) for s in split.train], min_freq=1)
            assert encoder.vocab.tokens == own.tokens
            assert encoder.embedding.shape == (len(own), FAST_CONFIG["dim"])
        # the separable corpus's messages hold none of its code's noise words
        sizes = [len(e.vocab) for e in model.encoders.values()]
        assert len(set(sizes)) == 3

    def test_code_only_token_is_unk_in_comment_and_message(self):
        # "zanzibar" reaches min_freq=2 in code changes only; counted over all
        # three texts it would reach it in the others too.
        split = toy_split(20)
        planted = make_sample(cc="+zanzibar = zanzibar", td="todo: zanzibar", msg="zanzibar.")
        split = dataclasses.replace(split, train=split.train + (planted,))
        config = TrainConfig(max_epochs=1, **{**FAST_CONFIG, "min_freq": 2})
        model, _ = train(split, config)
        cc, td, msg = (model.encoders[c].vocab for c in COMPONENT_ORDER)
        assert "zanzibar" in cc.index
        assert "zanzibar" not in td.index and "zanzibar" not in msg.index
        encoded = _encode_samples([planted], model, None)
        assert encoded[Component.CC][0][1:3].tolist() == [cc.index["zanzibar"]] * 2
        assert encoded[Component.TD][0][:2].tolist() == [td.index["todo"], UNK_INDEX]
        assert encoded[Component.MSG][0][0] == UNK_INDEX

    def test_masked_component_has_neither_table_nor_vocabulary(self, tmp_path):
        split = toy_split(20)
        config = TrainConfig(max_epochs=1, component_mask=parse_mask("td,msg"), **FAST_CONFIG)
        model, _ = train(split, config)
        assert list(model.encoders) == [Component.TD, Component.MSG]
        path = tmp_path / "model.npz"
        save_model(model, str(path))
        with np.load(path) as archive:
            meta = read_meta(archive)
            assert "emb_cc" not in archive.files
        assert list(meta["encoders"]) == ["td", "msg"]
        assert "vocab" not in meta


def model_for(samples):
    vocabs = {
        c: build_vocab([component_text(s, c) for s in samples], min_freq=1) for c in COMPONENT_ORDER
    }
    return _init_model(np.random.default_rng(0), vocabs, TrainConfig(dim=4))


class TestEncodedIds:
    def test_width_is_the_longest_text_and_rows_are_the_padded_encoding(self):
        samples = [
            make_sample(cc="+a b c", td="todo: x y z", msg="one."),  # "+" is a token
            make_sample(cc="-a b c d e f g", td="todo", msg="one two three four."),
        ]
        model = model_for(samples)
        encoded = _encode_samples(samples, model, None)
        assert [encoded[c].shape for c in COMPONENT_ORDER] == [(2, 8), (2, 4), (2, 4)]
        for component, ids in encoded.items():
            vocab = model.encoders[component].vocab
            for sample, row in zip(samples, ids):
                text = component_text(sample, component)
                full = padded_ids(vocab, text, MAX_LEN[component])
                assert row.tolist() == full[: ids.shape[1]]
                assert not any(full[ids.shape[1] :])

    def test_width_stops_at_max_len(self):
        samples = [make_sample(cc="+" + " x" * 250, td="todo" + " y" * 40)]
        encoded = _encode_samples(samples, model_for(samples), None)
        assert encoded[Component.CC].shape == (1, MAX_LEN[Component.CC])
        assert encoded[Component.TD].shape == (1, MAX_LEN[Component.TD])

    def test_width_is_one_when_no_text_has_a_token(self):
        samples = [make_sample(msg="..."), make_sample(msg="!?")]
        encoded = _encode_samples(samples, model_for(samples), None)
        assert encoded[Component.MSG].tolist() == [[PAD_INDEX], [PAD_INDEX]]


class TestMasking:
    def test_msg_masked_model_ignores_messages(self):
        split = toy_split(30)
        config = TrainConfig(
            max_epochs=40, component_mask=parse_mask("cc,td"), **FAST_CONFIG
        )
        model, _ = train(split, config)
        test = list(split.test)
        baseline = predict_scores(test, model)
        mutated = [
            make_sample(
                cc=s.code_change,
                td=s.todo_comment,
                msg="totally different text now.",
                label=s.label,
                commit_id=s.commit_id,
            )
            for s in test
        ]
        assert np.array_equal(predict_scores(mutated, model), baseline)

    def test_masked_component_has_no_encoder(self):
        split = toy_split(20)
        config = TrainConfig(
            max_epochs=5, component_mask=parse_mask("td,msg"), **FAST_CONFIG
        )
        model, _ = train(split, config)
        assert Component.CC not in model.encoders
        assert set(model.encoders) == {Component.TD, Component.MSG}
        assert model.mlp.input_dim == 2 * config.dim


def bit_equal(model_a, model_b):
    """Same parameter names, each with an array of the same dtype, shape and bytes."""
    a, b = model_a.arrays(), model_b.arrays()
    return a.keys() == b.keys() and all(
        (a[name].dtype, a[name].shape, a[name].tobytes())
        == (b[name].dtype, b[name].shape, b[name].tobytes())
        for name in a
    )


class TestCheckpoint:
    def test_returns_best_validation_not_last(self):
        rng = random.Random(1)
        split = split_dataset([random_sample(rng, i) for i in range(60)], seed=1)
        config = TrainConfig(
            dim=16, min_freq=1, seed=3, batch_size=8, max_epochs=2, validate_every=1
        )
        model, history = train(split, config)
        f1s = [-1.0 if v.val_f1 is None else v.val_f1 for v in history.validations]
        best = max(f1s)
        assert f1s[-1] < best
        assert history.best_batch < history.validations[-1].batch
        val = list(split.val)
        statuses = [status_of(s) for s in predict_scores(val, model)]
        assert metrics(confusion(statuses, [s.label for s in val])).f1 == best

    def test_last_validation_returns_the_live_model_with_the_checkpoint_bits(self):
        # Three batches: validated in the loop at its last batch, which
        # copies the model, or only after it, which returns the model itself.
        split = toy_split(20)
        in_loop, after = (
            train(split, TrainConfig(max_epochs=3, **{**FAST_CONFIG, "validate_every": every}))
            for every in (3, 0)
        )
        assert in_loop[1].validations == after[1].validations
        assert [v.batch for v in after[1].validations] == [after[1].best_batch] == [3]
        assert bit_equal(in_loop[0], after[0])

    def test_no_epochs_returns_seed_init(self):
        split = toy_split(20)
        config = TrainConfig(max_epochs=0, **FAST_CONFIG)
        model, history = train(split, config)
        assert history.validations == [] and history.best_batch == -1
        rng = np.random.default_rng(config.seed)
        active = config.active_components()
        vocabs = [build_vocab([component_text(s, c) for s in split.train], 1) for c in active]
        encoders = {c: init_encoder(rng, vocab, config.dim) for c, vocab in zip(active, vocabs)}
        mlp = init_mlp(rng, config.dim * len(active), default_hidden_sizes(config.dim))
        assert list(model.encoders) == list(active)
        assert [e.vocab.tokens for e in model.encoders.values()] == [v.tokens for v in vocabs]
        drawn = ModelParams(encoders=encoders, mlp=mlp, config=config).arrays()
        cast = {name: a.astype(np.float32) for name, a in drawn.items()}
        assert bit_equal(model, ModelParams.from_arrays(cast, dict(zip(active, vocabs)), config))


class TestFloat32:
    @pytest.mark.parametrize("backend", ["internal", "external"])
    def test_train_creates_and_steps_in_float32(self, backend, monkeypatch, tmp_path):
        # Every parameter, Adam moment and gradient that reaches Adam, the
        # returned model and the file written from it.
        seen = []

        def spy(params, grads, state, **kwargs):
            seen.extend(params + state.m + state.v)
            seen.extend(g.values if isinstance(g, RowGradient) else g for g in grads)
            adam_step(params, grads, state, **kwargs)

        monkeypatch.setattr(training, "adam_step", spy)
        split = toy_split(20)
        store = None
        if backend == "external":
            store = planted_store(split.train + split.val + split.test)
        config = TrainConfig(max_epochs=3, backend=backend, **FAST_CONFIG)
        model, history = train(split, config, store)
        path = str(tmp_path / "model.npz")
        save_model(model, path)
        with np.load(path) as archive:
            saved = [archive[name] for name in archive.files if name != "meta"]
        assert history.final_batch == 3 and len(saved) == len(model.arrays())
        arrays = seen + list(model.arrays().values()) + saved
        assert {a.dtype for a in arrays} == {np.dtype(np.float32)}


class TestDivergence:
    def _poisoned(self):
        # clamped cross entropy never overflows on its own, so feed the
        # network a corrupted (NaN) external vector to force the path
        corpus = make_separable_corpus(24, seed=9)
        split = DatasetSplit(
            train=tuple(corpus[:16]), val=tuple(corpus[16:20]), test=tuple(corpus[20:]), seed=0
        )
        rng = np.random.default_rng(0)
        store = ExternalVectorStore()
        for sample in corpus:
            for text in (sample.code_change, sample.todo_comment, sample.commit_msg):
                store.add(text, rng.normal(size=768))
        poisoned = np.full(768, np.nan)
        store.add(corpus[0].code_change, poisoned)

        config = TrainConfig(backend="external", max_epochs=5, validate_every=1, seed=3)
        return split, config, store

    def test_non_finite_loss_aborts_with_finite_model(self):
        split, config, store = self._poisoned()
        model, history = train(split, config, store)
        assert history.diverged
        for w in model.mlp.weights + model.mlp.biases:
            assert np.all(np.isfinite(w))

    def test_divergence_before_validation_returns_init(self):
        split, config, store = self._poisoned()
        twin, _ = train(split, dataclasses.replace(config, max_epochs=0), store)
        # the first batch diverges, or later ones after some Adam steps
        steps = dataclasses.replace(config, batch_size=4, validate_every=0)
        for diverging, min_steps in ((config, 0), (steps, 1)):
            model, history = train(split, diverging, store)
            assert history.diverged and history.validations == []
            assert history.final_batch >= min_steps
            assert bit_equal(model, twin)


class TestPredict:
    def _model(self):
        split = toy_split(20)
        config = TrainConfig(max_epochs=60, **FAST_CONFIG)
        model, _ = train(split, config)
        return model, split

    def test_prediction_fields_and_threshold(self):
        model, split = self._model()
        sample = split.test[0]
        prediction = predict(sample, model)
        assert 0.0 < prediction.score < 1.0
        assert prediction.sample is sample
        assert prediction.status is (
            Status.RESOLVED if prediction.score >= 0.5 else Status.UNRESOLVED
        )

    def test_threshold_equals_argmax_rule(self):
        model, split = self._model()
        for sample in list(split.train) + list(split.test):
            prediction = predict(sample, model)
            argmax = (
                Status.RESOLVED
                if prediction.score >= 1.0 - prediction.score
                else Status.UNRESOLVED
            )
            assert prediction.status is argmax

    def test_exact_half_score_is_resolved(self):
        # zero weights and biases give sigma(0) = 0.5 exactly; >= pins Resolved
        from staletodo.model.network import MlpParams
        from staletodo.model.vocab import make_vocab
        import numpy as np

        config = TrainConfig(dim=4)
        sizes = [12, 3, 2, 2, 1]
        mlp = MlpParams(
            weights=[np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])],
            biases=[np.zeros(b) for b in sizes[1:]],
        )
        from staletodo.model.network import Component, EncoderParams

        vocab = make_vocab(["queue", "flush"])
        encoders = {
            c: EncoderParams(vocab=vocab, embedding=np.zeros((len(vocab), 4))) for c in Component
        }
        model = ModelParams(encoders=encoders, mlp=mlp, config=config)
        prediction = predict(make_sample(), model)
        assert prediction.score == 0.5
        assert prediction.status is Status.RESOLVED

    def test_batched_scores_match_per_sample_predict(self):
        model, _ = self._model()
        samples = make_separable_corpus(130, seed=4)
        assert 2 * SCORE_CHUNK < len(samples) <= 3 * SCORE_CHUNK
        scores = predict_scores(samples, model)
        assert scores.shape == (130,)
        for sample, score in zip(samples, scores):
            prediction = predict(sample, model)
            assert prediction.status is status_of(score)
            assert abs(prediction.score - score) <= 1e-15

    def test_float32_model_scores_match_across_batch_sizes(self):
        # At dim 128 a float32 MLP gives one sample scores up to 3e-8 apart
        # in a batch of 1 and of 64, as the batch size picks the BLAS kernel.
        samples = make_separable_corpus(130, seed=4)
        config = TrainConfig(dim=128, min_freq=1, seed=5)
        vocabs = {
            c: build_vocab([component_text(s, c) for s in samples], 1)
            for c in config.active_components()
        }
        model = _init_model(np.random.default_rng(5), vocabs, config)
        assert {a.dtype for a in model.arrays().values()} == {np.dtype(np.float32)}
        scores = predict_scores(samples, model)
        assert scores.dtype == np.float64
        for sample, score in zip(samples, scores):
            assert abs(predict_scores([sample], model)[0] - score) <= 1e-15

    def test_predict_pure_function(self):
        model, split = self._model()
        sample = split.test[0]
        assert predict(sample, model).score == predict(sample, model).score

    def test_heldout_separable_sample_correct(self):
        corpus = make_separable_corpus(80, seed=2)
        split = split_dataset(corpus, seed=2)
        config = TrainConfig(max_epochs=150, **FAST_CONFIG)
        model, _ = train(split, config)
        assert accuracy(list(split.test), model) >= 0.9


class TestExternalBackend:
    def test_training_and_prediction_with_store(self):
        corpus = make_separable_corpus(24, seed=9)
        split = DatasetSplit(
            train=tuple(corpus[:16]), val=tuple(corpus[16:20]), test=tuple(corpus[20:]), seed=0
        )
        store = planted_store(corpus)
        config = TrainConfig(backend="external", max_epochs=30, validate_every=10, seed=3)
        model, history = train(split, config, store)
        assert not history.diverged
        assert model.encoders == {}
        assert accuracy(list(split.test), model, store) >= 0.8

    def test_missing_store_rejected(self):
        split = toy_split(20)
        config = TrainConfig(backend="external", max_epochs=1)
        with pytest.raises(ValueError):
            train(split, config)
