"""Forward pass, loss and analytic gradients of the fusion network."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import gradient_check_instance, to_dense
from staletodo.model.network import (
    MlpParams,
    ShapeMismatch,
    bce_loss,
    default_hidden_sizes,
    embedding_gradient,
    forward,
    init_encoder,
    init_mlp,
    mean_pool,
    mlp_backward,
)
from staletodo.model.vocab import PAD_INDEX, make_vocab


def vocab_of_size(n):
    """Specials plus made-up tokens: n tokens in all."""
    return make_vocab([f"w{i}" for i in range(n - 3)])


def zero_mlp(input_dim, hidden):
    sizes = [input_dim, *hidden, 1]
    weights = [np.zeros((a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [np.zeros(b) for b in sizes[1:]]
    return MlpParams(weights=weights, biases=biases)


def straight_line_score(h_parts, weights, biases):
    """Independent single-sample reimplementation of the fusion equations:
    concatenate, then z_l = relu(W^T z + b) through the hidden stack, then
    sigmoid of the final affine output."""
    z = np.concatenate(h_parts)
    for i, (w, b) in enumerate(zip(weights, biases)):
        a = w.T @ z + b
        z = np.maximum(a, 0.0) if i < len(weights) - 1 else a
    return 1.0 / (1.0 + math.exp(-z[0]))


def dense_scatter(d_h, ids, vocab_size, dim):
    """Mean-pooling gradient scattered into a dense float64 zero table, token
    by token, then rounded to d_h's dtype."""
    grad = np.zeros((vocab_size, dim))
    mask = ids != PAD_INDEX
    counts = np.maximum(mask.sum(axis=1), 1)
    repeated = np.repeat(d_h / counts[:, None], mask.sum(axis=1), axis=0)
    np.add.at(grad, ids[mask], repeated)
    return grad.astype(d_h.dtype)


def pad_zero_table(rows, dim):
    """A table as the model holds one: the PAD row is zero."""
    table = np.arange(float(rows * dim)).reshape(rows, dim)
    table[PAD_INDEX] = 0.0
    return table


@st.composite
def pooling_batches(draw):
    """(ids, table, d_h, dim, extra PAD columns): ids drawn from a small
    vocabulary, so they repeat, with PAD anywhere; a table as the model
    holds one, with a zero PAD row and no -0.0 entry; and a d_h holding 0.0
    and -0.0 among its entries."""
    dim = draw(st.integers(2, 5))
    vocab_size = draw(st.integers(2, 8))
    batch, length = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    ids = draw(st.lists(st.integers(0, vocab_size - 1), min_size=batch * length,
                        max_size=batch * length))
    finite = st.floats(-1e3, 1e3, allow_subnormal=True)
    table = draw(st.lists(finite.map(lambda x: x + 0.0), min_size=vocab_size * dim,
                          max_size=vocab_size * dim))
    d_h = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0]), finite), min_size=batch * dim,
                        max_size=batch * dim))
    table = np.array(table).reshape(vocab_size, dim)
    table[PAD_INDEX] = 0.0
    ids = np.array(ids, dtype=np.int64).reshape(batch, length)
    return ids, table, np.array(d_h).reshape(batch, dim), dim, draw(st.integers(1, 30))


def with_pad_columns(ids, extra):
    return np.concatenate([ids, np.full((ids.shape[0], extra), PAD_INDEX)], axis=1)


class TestMeanPool:
    def test_all_pad_gives_zero_vector(self):
        table = pad_zero_table(5, 4)
        ids = np.full((1, 6), PAD_INDEX)
        assert np.array_equal(mean_pool(ids, table)[0], np.zeros(4))

    def test_single_token_is_its_row(self):
        table = pad_zero_table(5, 4)
        ids = np.array([[3, PAD_INDEX, PAD_INDEX]])
        assert np.array_equal(mean_pool(ids, table)[0], table[3])

    def test_two_tokens_elementwise_average(self):
        table = np.array([[0.0, 0.0], [2.0, 4.0], [6.0, 8.0]])
        ids = np.array([[1, 2, PAD_INDEX]])
        expected = np.array([(2.0 + 6.0) / 2, (4.0 + 8.0) / 2])
        assert np.allclose(mean_pool(ids, table)[0], expected)

    def test_repeated_token_weighted(self):
        table = np.array([[0.0], [3.0], [9.0]])
        ids = np.array([[1, 1, 2]])
        assert np.allclose(mean_pool(ids, table)[0], [(3.0 + 3.0 + 9.0) / 3])

    def test_bit_equal_to_masked_formula(self):
        def masked_mean_pool(ids, table):
            mask = ids != PAD_INDEX
            counts = np.maximum(mask.sum(axis=1), 1)
            return (table[ids] * mask[:, :, None]).sum(axis=1) / counts[:, None]

        rng = np.random.default_rng(8)
        table = init_encoder(rng, vocab_of_size(300), 16).embedding
        table[PAD_INDEX + 1 :] *= rng.normal(size=(299, 16)) * 100
        ids = rng.integers(0, 300, size=(64, 50))
        for row, length in enumerate(rng.integers(0, 51, size=64)):
            ids[row, length:] = PAD_INDEX  # row lengths 0..50, some all PAD
        ids[0] = PAD_INDEX
        assert mean_pool(ids, table).tobytes() == masked_mean_pool(ids, table).tobytes()

    def test_float32_table_pools_in_float32(self):
        def masked_mean_pool_float32(ids, table):
            mask = ids != PAD_INDEX
            counts = np.maximum(mask.sum(axis=1), 1).astype(np.float32)
            return (table[ids] * mask[:, :, None]).sum(axis=1) / counts[:, None]

        rng = np.random.default_rng(9)
        table = init_encoder(rng, vocab_of_size(300), 16).embedding
        table[PAD_INDEX + 1 :] *= rng.normal(size=(299, 16)) * 100
        table = table.astype(np.float32)
        ids = rng.integers(0, 300, size=(64, 50))
        for row, length in enumerate(rng.integers(0, 51, size=64)):
            ids[row, length:] = PAD_INDEX
        ids[0] = PAD_INDEX
        pooled = mean_pool(ids, table)
        assert pooled.dtype == np.float32
        assert pooled.tobytes() == masked_mean_pool_float32(ids, table).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(pooling_batches())
    def test_pad_columns_change_no_bit(self, batch):
        # The token axis is summed in order when dim > 1, so trailing PAD
        # columns only add +0.0 after the last token.
        ids, table, _, _, extra = batch
        padded = mean_pool(with_pad_columns(ids, extra), table)
        assert padded.tobytes() == mean_pool(ids, table).tobytes()


class TestForward:
    def test_all_zero_params_give_half(self):
        mlp = zero_mlp(6, (4, 3, 2))
        h = np.zeros((1, 2))
        scores, _ = forward([h, h, h], mlp)
        assert scores[0] == 0.5

    def test_eval_mode_deterministic(self):
        rng = np.random.default_rng(0)
        mlp = init_mlp(rng, 9, (4, 4, 2))
        h = [rng.normal(size=(1, 3)) for _ in range(3)]
        a, _ = forward(h, mlp)
        b, _ = forward(h, mlp)
        assert np.array_equal(a, b)

    def test_matches_straight_line_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            dims = [int(rng.integers(1, 5)) for _ in range(3)]
            hidden = tuple(int(rng.integers(1, 6)) for _ in range(3))
            mlp = init_mlp(rng, sum(dims), hidden)
            for b in mlp.biases:
                b += rng.normal(scale=0.2, size=b.shape)
            parts = [rng.normal(size=(4, d)) for d in dims]
            scores, _ = forward(parts, mlp)
            for row, score in enumerate(scores):
                oracle = straight_line_score([p[row] for p in parts], mlp.weights, mlp.biases)
                assert math.isclose(float(score), oracle, rel_tol=1e-12)

    def test_masked_component_has_no_part(self):
        rng = np.random.default_rng(3)
        mlp = init_mlp(rng, 4, (3, 2, 2))
        h = rng.normal(size=(1, 4))
        scores, _ = forward([h], mlp)
        assert 0.0 < float(scores[0]) < 1.0

    def test_shape_mismatch_raises(self):
        rng = np.random.default_rng(3)
        mlp = init_mlp(rng, 6, (3, 2, 2))
        with pytest.raises(ShapeMismatch):
            forward([np.zeros((1, 4))], mlp)
        with pytest.raises(ShapeMismatch):
            forward([], mlp)
        with pytest.raises(ShapeMismatch):
            forward([np.zeros((2, 3)), np.zeros((1, 3))], mlp)

    def test_score_stays_in_open_interval_for_huge_logits(self):
        mlp = zero_mlp(2, (2, 2, 2))
        mlp.biases[-1][:] = 1000.0
        score_hi, _ = forward([np.zeros((1, 2))], mlp)
        mlp.biases[-1][:] = -1000.0
        score_lo, _ = forward([np.zeros((1, 2))], mlp)
        assert 0.0 < float(score_lo[0]) < float(score_hi[0]) < 1.0

    def test_dropout_reproducible_with_seeded_rng(self):
        rng = np.random.default_rng(9)
        mlp = init_mlp(rng, 6, (4, 3, 2))
        h = [np.ones((1, 2)) for _ in range(3)]
        s1, _ = forward(h, mlp, rng=np.random.default_rng(42))
        s2, _ = forward(h, mlp, rng=np.random.default_rng(42))
        s3, _ = forward(h, mlp, rng=np.random.default_rng(43))
        assert s1[0] == s2[0]
        assert s1[0] != s3[0]  # different mask draw

    def test_batch_matches_per_sample(self):
        rng = np.random.default_rng(21)
        mlp = init_mlp(rng, 6, (4, 3, 2))
        parts = [rng.normal(size=(5, 2)) for _ in range(3)]
        batch_scores, _ = forward(parts, mlp)
        for i in range(5):
            one, _ = forward([p[i : i + 1] for p in parts], mlp)
            assert math.isclose(float(one[0]), float(batch_scores[i]), rel_tol=1e-12)


class TestLoss:
    def test_half_score_positive_label_is_ln2(self):
        assert math.isclose(bce_loss(0.5, 1.0), math.log(2), rel_tol=1e-12)

    def test_confident_correct_score_tends_to_zero(self):
        assert bce_loss(1.0 - 1e-9, 1.0) < 1e-6
        assert bce_loss(1e-9, 0.0) < 1e-6

    def test_clamp_keeps_loss_finite(self):
        assert math.isfinite(bce_loss(0.0, 1.0))
        assert math.isfinite(bce_loss(1.0, 0.0))
        assert math.isclose(bce_loss(0.0, 1.0), -math.log(1e-7), rel_tol=1e-9)

    def test_random_pairs_match_formula(self):
        rng = random.Random(6)
        for _ in range(200):
            s = rng.uniform(1e-6, 1 - 1e-6)
            y = rng.choice((0.0, 1.0))
            expected = -(y * math.log(s) + (1 - y) * math.log(1 - s))
            assert math.isclose(bce_loss(s, y), expected, rel_tol=1e-12)

    def test_batch_mean_reduction(self):
        scores = np.array([0.5, 0.9])
        labels = np.array([1.0, 1.0])
        expected = (bce_loss(0.5, 1.0) + bce_loss(0.9, 1.0)) / 2
        assert math.isclose(bce_loss(scores, labels), expected, rel_tol=1e-12)


class TestBackward:
    def test_output_bias_gradient_is_score_minus_label(self):
        rng = np.random.default_rng(7)
        mlp = init_mlp(rng, 6, (4, 3, 2))
        for b in mlp.biases:
            b += rng.normal(scale=0.2, size=b.shape)
        h = [rng.normal(size=(1, 2)) for _ in range(3)]
        scores, cache = forward(h, mlp)
        for label in (0.0, 1.0):
            grads, _ = mlp_backward(mlp, cache, np.array([label]))
            assert math.isclose(
                float(grads.mlp_b[-1][0]), float(scores[0]) - label, rel_tol=1e-12
            )

    def test_gradients_match_finite_differences(self):
        for seed in (0, 1, 2):
            assert gradient_check_instance(seed) < 1e-4

    def test_dropped_inputs_get_zero_gradient(self):
        # with a full dropout mask row of zeros the corresponding input
        # cannot influence the loss; reuse the cached mask to verify
        rng = np.random.default_rng(11)
        mlp = init_mlp(rng, 4, (3, 2, 2))
        h = rng.normal(size=(1, 4))
        _, cache = forward([h], mlp, rng=np.random.default_rng(1))
        grads, d_input = mlp_backward(mlp, cache, np.array([1.0]))
        dropped = cache.masks[0][0] == 0.0
        assert np.all(d_input[0][dropped] == 0.0)

    def test_label_length_mismatch(self):
        mlp = zero_mlp(3, (2, 2, 2))
        _, cache = forward([np.zeros((2, 3))], mlp)
        with pytest.raises(ShapeMismatch):
            mlp_backward(mlp, cache, np.array([1.0]))


class TestEmbeddingGradient:
    def test_pad_only_rows_zero(self):
        d_h = np.ones((1, 3))
        ids = np.full((1, 4), PAD_INDEX)
        grad = to_dense(embedding_gradient(d_h, ids, vocab_size=5, dim=3))
        assert np.array_equal(grad, np.zeros((5, 3)))

    def test_single_token_receives_full_gradient(self):
        d_h = np.array([[1.0, 2.0]])
        ids = np.array([[3, PAD_INDEX]])
        grad = to_dense(embedding_gradient(d_h, ids, vocab_size=4, dim=2))
        assert np.array_equal(grad[3], [1.0, 2.0])
        assert np.count_nonzero(grad) == 2

    def test_mean_denominator_and_duplicates(self):
        d_h = np.array([[6.0]])
        ids = np.array([[1, 1, 2]])
        grad = to_dense(embedding_gradient(d_h, ids, vocab_size=3, dim=1))
        assert np.allclose(grad[1], [4.0])  # two shares of 6/3
        assert np.allclose(grad[2], [2.0])

    def test_rows_match_dense_scatter_bit_for_bit(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            vocab_size = int(rng.integers(2, 30))
            dim = int(rng.integers(1, 6))
            batch = int(rng.integers(1, 5))
            ids = rng.integers(0, vocab_size, size=(batch, int(rng.integers(1, 12))))
            d_h = rng.normal(size=(batch, dim))
            grad = embedding_gradient(d_h, ids, vocab_size, dim)
            assert np.array_equal(to_dense(grad), dense_scatter(d_h, ids, vocab_size, dim))
            assert np.array_equal(grad.rows, np.unique(ids[ids != PAD_INDEX]))

    @settings(max_examples=300, deadline=None)
    @given(pooling_batches())
    def test_flat_scatter_matches_2d_add_at_bit_for_bit(self, batch):
        ids, _, d_h, dim, _ = batch
        vocab_size = int(ids.max()) + 1
        grad = embedding_gradient(d_h, ids, vocab_size, dim)
        assert to_dense(grad).tobytes() == dense_scatter(d_h, ids, vocab_size, dim).tobytes()
        assert np.array_equal(grad.rows, np.unique(ids[ids != PAD_INDEX]))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("dim", [1, 15, 16, 17, 33, 128])
    def test_column_blocks_match_dense_scatter_bit_for_bit(self, dim, dtype):
        # Dims below, at and across the 16-column blocks of the scatter.
        rng = np.random.default_rng(dim)
        for _ in range(20):
            vocab_size = int(rng.integers(2, 40))
            batch = int(rng.integers(1, 9))
            ids = rng.integers(0, vocab_size, size=(batch, int(rng.integers(1, 30))))
            ids[rng.random(ids.shape) < 0.2] = PAD_INDEX
            d_h = rng.normal(size=(batch, dim)).astype(dtype)
            d_h[rng.random(d_h.shape) < 0.1] = rng.choice([0.0, -0.0])
            grad = embedding_gradient(d_h, ids, vocab_size, dim)
            assert grad.values.dtype == dtype
            assert grad.values.shape == (grad.rows.size, dim)
            assert to_dense(grad).tobytes() == dense_scatter(d_h, ids, vocab_size, dim).tobytes()

    def test_scatter_holds_no_token_by_dim_temporary(self):
        # 12,800 tokens at dim 128: a (tokens, dim) float64 array alone would
        # be 2.7 times the returned gradient.
        rng = np.random.default_rng(22)
        ids = rng.integers(0, 20_000, size=(64, 200))
        d_h = rng.normal(size=(64, 128)).astype(np.float32)
        tracemalloc.start()
        try:
            grad = embedding_gradient(d_h, ids, 20_000, 128)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3 * (grad.rows.nbytes + grad.values.nbytes)

    @settings(max_examples=300, deadline=None)
    @given(pooling_batches())
    def test_pad_columns_change_no_bit(self, batch):
        ids, _, d_h, dim, extra = batch
        grad = embedding_gradient(d_h, ids, 8, dim)
        padded = embedding_gradient(d_h, with_pad_columns(ids, extra), 8, dim)
        assert padded.rows.tobytes() == grad.rows.tobytes()
        assert padded.values.tobytes() == grad.values.tobytes()


class TestShapes:
    def test_default_hidden_sizes(self):
        assert default_hidden_sizes(768) == (256, 128, 64)
        assert default_hidden_sizes(128) == (64, 32, 16)
        assert default_hidden_sizes(8) == (8, 8, 8)

    def test_init_encoder_pad_row_zero(self):
        rng = np.random.default_rng(0)
        vocab = vocab_of_size(10)
        enc = init_encoder(rng, vocab, 4)
        assert enc.vocab is vocab and enc.embedding.shape == (10, 4)
        assert np.array_equal(enc.embedding[PAD_INDEX], np.zeros(4))
        assert np.abs(enc.embedding).max() <= 0.05

    def test_init_mlp_glorot_bounds_and_zero_bias(self):
        rng = np.random.default_rng(0)
        mlp = init_mlp(rng, 12, (6, 4, 2))
        sizes = [12, 6, 4, 2, 1]
        for w, b, fan_in, fan_out in zip(mlp.weights, mlp.biases, sizes[:-1], sizes[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            assert np.abs(w).max() <= bound
            assert np.array_equal(b, np.zeros(fan_out))
