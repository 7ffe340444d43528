"""Gradient clipping and Adam updates."""

import math
import random
import threading
import tracemalloc

import numpy as np
import pytest

from helpers import to_dense
from staletodo.model.optimizer import (
    AdamState,
    RowGradient,
    adam_step,
    clip_gradients,
    global_norm,
)
from staletodo.model.network import embedding_gradient
from staletodo.model.vocab import PAD_INDEX


class TestClipGradients:
    def test_norm_below_limit_unchanged(self):
        grads = [np.array([0.6, 0.8])]  # norm 1.0
        out = clip_gradients(grads, max_norm=2.0)
        assert out[0] is grads[0]

    def test_norm_four_scaled_to_two(self):
        grads = [np.array([4.0, 0.0]), np.array([0.0])]  # norm 4
        out = clip_gradients(grads, max_norm=2.0)
        assert np.allclose(out[0], [2.0, 0.0])
        assert math.isclose(global_norm(out), 2.0, rel_tol=1e-12)

    def test_post_clip_norm_never_exceeds_limit(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            grads = [
                rng.normal(scale=rng.uniform(0.1, 10), size=rng.integers(1, 6))
                for _ in range(rng.integers(1, 5))
            ]
            out = clip_gradients(grads, max_norm=2.0)
            assert global_norm(out) <= 2.0 + 1e-9

    def test_clipping_preserves_direction(self):
        grads = [np.array([3.0, 4.0])]  # norm 5
        out = clip_gradients(grads, max_norm=2.0)
        assert np.allclose(out[0] / global_norm(out), grads[0] / 5.0)

    def test_zero_gradients_untouched(self):
        grads = [np.zeros(3)]
        out = clip_gradients(grads, max_norm=2.0)
        assert np.array_equal(out[0], np.zeros(3))


def random_row_gradient(rng, num_rows=50, dim=4, scale=1.0):
    rows = np.unique(rng.integers(1, num_rows, size=int(rng.integers(0, 12))))
    return RowGradient(rows, rng.normal(scale=scale, size=(rows.size, dim)), num_rows)


class TestRowGradients:
    def test_global_norm_matches_dense(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            grads = [rng.normal(size=(3, 2))] + [
                random_row_gradient(rng) for _ in range(rng.integers(1, 4))
            ]
            dense = [to_dense(g) if isinstance(g, RowGradient) else g for g in grads]
            assert math.isclose(global_norm(grads), global_norm(dense), rel_tol=1e-12)

    def test_clipped_row_gradient_matches_dense(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            grads = [rng.normal(size=3), random_row_gradient(rng, scale=5.0)]
            out = clip_gradients(grads, max_norm=2.0)
            dense = clip_gradients([grads[0], to_dense(grads[1])], max_norm=2.0)
            assert isinstance(out[1], RowGradient)
            assert np.allclose(to_dense(out[1]), dense[1], rtol=1e-12, atol=0.0)
            assert global_norm(out) <= 2.0 + 1e-9

    @pytest.mark.parametrize(
        "vocab, dim, untouched, boundary, dtype, dense_rows",
        [
            (40, 6, 30, (), np.float64, None),
            (2600, 6, 2200, (1023, 1024, 2047, 2048), np.float64, None),
            (8400, 128, 8000, (1023, 1024, 4095, 4096, 7167, 7168), np.float64, None),
            (40, 6, 30, (), np.float32, None),
            (2600, 6, 2200, (1023, 1024, 2047, 2048), np.float32, None),
            (8400, 128, 8000, (1023, 1024, 4095, 4096, 7167, 7168), np.float32, None),
            (40, 6, 30, (), np.float64, 2600),
            (40, 6, 30, (), np.float32, 2600),
        ],
        ids=[
            "one-block", "three-blocks", "nine-blocks",
            "one-block-float32", "three-blocks-float32", "nine-blocks-float32",
            "dense-three-blocks", "dense-three-blocks-float32",
        ],
    )
    def test_adam_matches_dense_adam_bit_for_bit(
        self, vocab, dim, untouched, boundary, dtype, dense_rows
    ):
        # Row 1 is touched only in the first step and then only decays; rows
        # `untouched` and up are never touched; ids repeat within every batch.
        # The 2,600-row table spans two full update blocks and a partial one,
        # and every batch touches the rows on both sides of each block edge.
        # The 8,400 x 128 table spans eight full blocks and a partial one, and
        # its blocks are as wide as the benchmark's dim-128 tables. In float32
        # the reference runs every operation in float32, so scratch buffers or
        # moments of another dtype would change bits. With dense_rows, the
        # dense weight has that many rows and the dense bias that many
        # entries, so dense gradients too span two full blocks and a partial
        # one.
        rng = np.random.default_rng(17)
        table = rng.uniform(-0.05, 0.05, size=(vocab, dim)).astype(dtype)
        weight = rng.normal(size=(dense_rows or dim, 3)).astype(dtype)
        bias = rng.normal(size=dense_rows or 3).astype(dtype)
        sparse = [weight.copy(), bias.copy(), table.copy()]
        dense = [weight.copy(), bias.copy(), table.copy()]
        sparse_state = AdamState.for_params(sparse)
        dense_moments = [(np.zeros(p.shape, dtype), np.zeros(p.shape, dtype)) for p in dense]
        row_one = []
        for step in range(30):
            ids = rng.integers(2, untouched, size=(4, 10))
            ids[rng.random(ids.shape) < 0.2] = PAD_INDEX
            if step == 0:
                ids[0, 0] = 1
            ids[1, : len(boundary)] = boundary
            ids[2, : len(boundary)] = boundary
            used = ids[ids != PAD_INDEX]
            assert np.unique(used).size < used.size
            grad = embedding_gradient(rng.normal(size=(4, dim)).astype(dtype), ids, vocab, dim)
            w_grad = rng.normal(size=weight.shape).astype(dtype)
            b_grad = rng.normal(size=bias.shape).astype(dtype)
            adam_step(sparse, [w_grad, b_grad, grad], sparse_state, lr=0.01)
            dense_adam(dense, [w_grad, b_grad, to_dense(grad)], dense_moments, step + 1, 0.01)
            assert np.array_equal(sparse[0], dense[0])
            assert np.array_equal(sparse[1], dense[1])
            assert np.array_equal(sparse[2], dense[2])
            row_one.append(sparse[2][1].copy())
        assert np.array_equal(sparse[2][untouched:], table[untouched:])
        assert not np.array_equal(row_one[-2], row_one[-1])
        arrays = sparse + sparse_state.m + sparse_state.v + [grad.values]
        assert {a.dtype for a in arrays} == {np.dtype(dtype)}

    def test_adam_step_allocates_far_less_than_the_table(self):
        # Once every row has moments, a step over a few rows still updates
        # the table in blocks rather than through a table-sized temporary.
        rng = np.random.default_rng(18)
        num_rows, dim = 20_000, 128
        table = rng.uniform(-0.05, 0.05, size=(num_rows, dim))
        state = AdamState.for_params([table])
        every_row = RowGradient(np.arange(num_rows), rng.normal(size=(num_rows, dim)), num_rows)
        adam_step([table], [every_row], state)
        rows = np.sort(rng.choice(num_rows, size=500, replace=False))
        grad = RowGradient(rows, rng.normal(size=(rows.size, dim)), num_rows)
        tracemalloc.start()
        try:
            adam_step([table], [grad], state)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < table.nbytes / 4

    def test_adam_step_starts_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError(f"adam_step started thread {thread.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        rng = np.random.default_rng(19)
        table = rng.uniform(-0.05, 0.05, size=(8400, 128)).astype(np.float32)
        before = table.copy()
        rows = np.sort(rng.choice(8400, size=5000, replace=False))
        values = rng.normal(size=(rows.size, 128)).astype(np.float32)
        adam_step([table], [RowGradient(rows, values, 8400)], AdamState.for_params([table]))
        assert not np.array_equal(table[rows], before[rows])


def dense_adam(params, grads, moments, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """One Adam step over whole arrays in one thread, in adam_step's order."""
    for p, g, (m, v) in zip(params, grads, moments):
        m[:] = b1 * m + (1.0 - b1) * g
        v[:] = b2 * v + (1.0 - b2) * np.square(g)
        p -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)


def reference_adam(params, grad_fn, steps, lr=0.001, b1=0.9, b2=0.999, eps=1e-8):
    """Plain-python scalar transcription of the Adam update equations."""
    params = list(params)
    m = [0.0] * len(params)
    v = [0.0] * len(params)
    history = []
    for t in range(1, steps + 1):
        grads = grad_fn(params)
        for i, g in enumerate(grads):
            m[i] = b1 * m[i] + (1 - b1) * g
            v[i] = b2 * v[i] + (1 - b2) * g * g
            m_hat = m[i] / (1 - b1**t)
            v_hat = v[i] / (1 - b2**t)
            params[i] = params[i] - lr * m_hat / (math.sqrt(v_hat) + eps)
        history.append(list(params))
    return history


class TestAdam:
    def test_first_step_is_minus_lr_times_sign(self):
        for g in (5.0, -0.003, 0.7):
            params = [np.array([1.0])]
            state = AdamState.for_params(params)
            adam_step(params, [np.array([g])], state, lr=0.001)
            step = params[0][0] - 1.0
            # bias-corrected moments cancel the magnitude (up to eps)
            assert math.isclose(step, -0.001 * math.copysign(1, g), rel_tol=1e-4)

    def test_first_step_exact_formula_near_eps(self):
        g = 1e-6
        params = [np.array([1.0])]
        state = AdamState.for_params(params)
        adam_step(params, [np.array([g])], state, lr=0.001)
        expected = -0.001 * g / (abs(g) + 1e-8)
        assert math.isclose(params[0][0] - 1.0, expected, rel_tol=1e-12)

    def test_zero_grad_fresh_state_leaves_params(self):
        params = [np.array([2.5, -1.0])]
        state = AdamState.for_params(params)
        adam_step(params, [np.zeros(2)], state)
        assert np.array_equal(params[0], [2.5, -1.0])
        assert state.t == 1

    def test_ten_step_quadratic_matches_reference(self):
        # minimize sum((x - target)^2) from x = [3, -2], target = [1, 1]
        target = np.array([1.0, 1.0])
        params = [np.array([3.0, -2.0])]
        state = AdamState.for_params(params)
        ours = []
        for _ in range(10):
            grads = [2.0 * (params[0] - target)]
            adam_step(params, grads, state, lr=0.05)
            ours.append(params[0].copy())

        ref = reference_adam(
            [3.0, -2.0],
            lambda p: [2.0 * (p[0] - 1.0), 2.0 * (p[1] - 1.0)],
            steps=10,
            lr=0.05,
        )
        for step_ours, step_ref in zip(ours, ref):
            assert math.isclose(step_ours[0], step_ref[0], rel_tol=1e-12)
            assert math.isclose(step_ours[1], step_ref[1], rel_tol=1e-12)

    def test_timestep_advances(self):
        params = [np.array([0.0])]
        state = AdamState.for_params(params)
        for expected in (1, 2, 3):
            adam_step(params, [np.array([0.1])], state)
            assert state.t == expected

    def test_descends_a_quadratic(self):
        params = [np.array([4.0])]
        state = AdamState.for_params(params)
        losses = []
        for _ in range(500):
            losses.append(float((params[0][0] - 1.0) ** 2))
            adam_step(params, [np.array([2.0 * (params[0][0] - 1.0)])], state, lr=0.05)
        assert losses[-1] < 1e-3
        assert losses[-1] < losses[0]
