"""Differentiation engine: op contracts, backward semantics, optimizer."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fewtune.diffcore as dc
from fewtune.errors import ContractError, DegenerateBatchError, ParameterError, ShapeError
from fewtune.fewshot import Backbone, BackboneSpec, embed

from helpers import gradient_check


class TestMatmul:
    def test_identity(self):
        out = dc.matmul(dc.constant([[1.0, 0.0], [0.0, 1.0]]), dc.constant([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(out.values, [[3.0, 4.0], [5.0, 6.0]])

    def test_scalar_case(self):
        out = dc.matmul(dc.constant([[2.0]]), dc.constant([[3.0]]))
        np.testing.assert_array_equal(out.values, [[6.0]])

    def test_gradient_matches_finite_differences(self):
        b = dc.constant([[3.0], [4.0]])
        a = dc.param([[1.0, 2.0]])
        dc.backward(dc.tensor_sum(dc.matmul(a, b)))
        np.testing.assert_allclose(a.grad, [[3.0, 4.0]], atol=1e-9)
        err = gradient_check(lambda t: dc.tensor_sum(dc.matmul(t, b)), dc.param([[1.0, 2.0]]), 1e-6)
        assert err < 1e-6

    def test_constant_operand_gets_no_gradient(self):
        rng = np.random.default_rng(3)
        batch = rng.normal(size=(4, 3))
        weight = rng.normal(size=(3, 2))
        g = rng.normal(size=(4, 2))
        to_batch, to_weight = dc.matmul(dc.constant(batch), dc.param(weight))._backward(g)
        assert to_batch is None
        np.testing.assert_array_equal(to_weight, batch.T @ g)
        to_weight, to_batch = dc.matmul(dc.param(weight.T), dc.constant(batch.T))._backward(g.T)
        assert to_batch is None
        np.testing.assert_array_equal(to_weight, g.T @ batch)

    @pytest.mark.parametrize("constant_side", ["left", "right"])
    def test_gradient_check_with_constant_operand(self, constant_side):
        rng = np.random.default_rng(4)
        const = dc.constant(rng.normal(size=(3, 3)))
        chain = (lambda t: dc.matmul(const, t)) if constant_side == "left" else (lambda t: dc.matmul(t, const))
        err = gradient_check(lambda t: dc.tensor_sum(dc.mul(chain(t), chain(t))), dc.param(rng.normal(size=(3, 3))))
        assert err < 1e-6

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            dc.matmul(dc.constant(np.zeros((2, 3))), dc.constant(np.zeros((2, 2))))


class TestNoOperators:
    def test_arithmetic_is_a_type_error(self):
        # each op has one spelling, its module function; with an array on the
        # left, an operator would otherwise build an object array of tensors
        for expr in (
            lambda: np.ones((1, 2)) * dc.param([[1.0, 2.0]]),
            lambda: dc.param([1.0]) + 1.0,
            lambda: -dc.param([1.0]),
        ):
            with pytest.raises(TypeError):
                expr()


class TestRelu:
    def test_elementwise(self):
        out = dc.relu(dc.constant([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.values, [0.0, 0.0, 2.0])

    def test_identity_on_positives(self):
        x = np.array([0.5, 1.0, 3.25])
        np.testing.assert_array_equal(dc.relu(dc.constant(x)).values, x)

    def test_gradient(self):
        x = dc.param([-1.0, 2.0])
        dc.backward(dc.tensor_sum(dc.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0, 1.0])

    def test_gradient_at_zero_is_zero(self):
        x = dc.param([0.0])
        dc.backward(dc.tensor_sum(dc.relu(x)))
        np.testing.assert_array_equal(x.grad, [0.0])

    def test_all_zero_adjoint_is_dropped(self):
        off = dc.relu(dc.param([-1.0, 0.0, -2.0]))
        assert off._backward(np.array([1.0, -3.0, 2.0])) == (None,)
        on = dc.relu(dc.param([1.0, 2.0]))
        assert on._backward(np.zeros(2)) == (None,)
        for g in ([0.0, 4.0], [2.0, -2.0]):  # nonzero, even where it sums to 0
            (grad,) = on._backward(np.array(g))
            np.testing.assert_array_equal(grad, g)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_adjoint_is_kept(self, bad):
        # nan * 0 and inf * 0 are nan, which any() counts as nonzero
        off = dc.relu(dc.param([-1.0, -2.0]))
        with np.errstate(invalid="ignore"):
            (grad,) = off._backward(np.array([bad, 1.0]))
        assert np.isnan(grad[0]) and grad[1] == 0.0

    def test_dead_branch_leaves_upstream_without_gradient(self):
        x = dc.param([1.0, 2.0])
        w = dc.param([3.0])
        hidden = dc.mul(x, w)
        dead = dc.relu(dc.sub(hidden, dc.constant(10.0)))  # every unit off
        dc.backward(dc.add(dc.tensor_sum(dead), dc.tensor_sum(dc.mul(w, w))))
        assert x._grad is None and hidden._grad is None
        np.testing.assert_array_equal(w.grad, [6.0])


class TestL2Normalize:
    def test_closed_form(self):
        out = dc.l2_normalize(dc.constant([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[0.6, 0.8]], atol=1e-12)

    def test_unit_row_unchanged(self):
        row = np.array([[1.0, 0.0]])
        np.testing.assert_allclose(dc.l2_normalize(dc.constant(row)).values, row, atol=1e-15)

    def test_zero_row_guarded(self):
        out = dc.l2_normalize(dc.constant([[0.0, 0.0]]))
        np.testing.assert_array_equal(out.values, [[0.0, 0.0]])


class TestCosineMatrix:
    def test_orthonormal_axes(self):
        out = dc.cosine_matrix(dc.constant([[1.0, 0.0]]), dc.constant([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(out.values, [[1.0, 0.0]], atol=1e-15)

    def test_scale_invariance(self):
        out = dc.cosine_matrix(dc.constant([[2.0, 0.0]]), dc.constant([[1.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[1.0]], atol=1e-15)

    def test_diagonal_pair(self):
        out = dc.cosine_matrix(dc.constant([[1.0, 1.0]]), dc.constant([[1.0, 0.0]]))
        np.testing.assert_allclose(out.values, [[1.0 / np.sqrt(2.0)]], atol=1e-12)

    def test_entries_bounded(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = dc.constant(rng.normal(size=(6, 5)) * rng.uniform(0.1, 10))
            p = dc.constant(rng.normal(size=(4, 5)) * rng.uniform(0.1, 10))
            vals = dc.cosine_matrix(q, p).values
            assert vals.min() >= -1.0 - 1e-9 and vals.max() <= 1.0 + 1e-9


class TestSquaredEuclidean:
    def test_identical_rows_zero(self):
        x = dc.constant([[1.0, 2.0]])
        np.testing.assert_array_equal(dc.squared_euclidean_matrix(x, x).values, [[0.0]])

    def test_closed_form(self):
        out = dc.squared_euclidean_matrix(dc.constant([[0.0, 0.0]]), dc.constant([[3.0, 4.0]]))
        np.testing.assert_allclose(out.values, [[25.0]], atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        q = dc.constant(rng.normal(size=(3, 4)))
        p = dc.constant(rng.normal(size=(5, 4)))
        np.testing.assert_array_equal(
            dc.squared_euclidean_matrix(q, p).values,
            dc.squared_euclidean_matrix(p, q).values.T,
        )

    def test_nonnegative_and_zero_iff_identical(self):
        rng = np.random.default_rng(2)
        q = rng.normal(size=(4, 3))
        q[2] = q[0]
        d = dc.squared_euclidean_matrix(dc.constant(q), dc.constant(q)).values
        assert d.min() >= 0.0
        same = np.abs(d) < 1e-12
        expected = np.zeros((4, 4), dtype=bool)
        for i in range(4):
            for j in range(4):
                expected[i, j] = np.array_equal(q[i], q[j])
        np.testing.assert_array_equal(same, expected)


def one_norm_backbone(dim):
    """A backbone whose embeddings are its one batch norm's output, up to rounding: identity dense
    layers, a zero first bias, beta 4 and a last bias of -4. The shift of 4 keeps the relu between
    them open in "eval" mode for the inputs below, and in "transductive" or "train" mode for any
    batch of at most 16 rows, whose normalized values are at most sqrt(rows - 1) from zero."""
    eye, ones, zeros = np.eye(dim), np.ones((1, dim)), np.zeros((1, dim))
    arrays = [eye, zeros, eye, zeros - 4.0, ones, zeros + 4.0, zeros, ones]  # in fewshot._layout order
    return Backbone(BackboneSpec(dim, (dim,), dim), arrays)


class TestBatchNorm:
    """The taped batch norm is train mode only; `fewshot.embed` normalizes off the tape in every mode."""

    def test_train_mode_standardizes(self):
        rng = np.random.default_rng(3)
        x = dc.constant(rng.normal(5_000.0, 1_000.0, size=(64, 8)))
        state = dc.BatchNormState.create(8)
        out = dc.batch_norm(x, state).values
        assert np.abs(out.mean(axis=0)).max() < 1e-9
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-6

    def test_train_mode_updates_running_stats(self):
        state = dc.BatchNormState.create(2)
        dc.batch_norm(dc.constant([[0.0, 0.0], [2.0, 4.0]]), state)
        np.testing.assert_allclose(state.running_mean, [[0.1, 0.2]], atol=1e-12)

    def test_eval_mode_is_affine_only(self):
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        out = embed(one_norm_backbone(2), x, "eval")
        np.testing.assert_allclose(out, x / np.sqrt(1.0 + dc.BN_EPS), atol=1e-12)

    def test_transductive_removes_shift(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(16, 4))
        bk = one_norm_backbone(4)
        out_a = embed(bk, x, "transductive")
        out_b = embed(bk, x + 7.25, "transductive")
        np.testing.assert_allclose(out_a, out_b, atol=1e-9)

    def test_transductive_leaves_running_stats(self):
        bk = one_norm_backbone(2)
        before = bk.norms[0].running_mean.copy()
        embed(bk, np.array([[1.0, 2.0], [3.0, 4.0]]), "transductive")
        np.testing.assert_array_equal(bk.norms[0].running_mean, before)

    def test_degenerate_batch(self):
        state = dc.BatchNormState.create(2)
        with pytest.raises(DegenerateBatchError):
            dc.batch_norm(dc.constant([[1.0, 2.0]]), state)
        for mode in ("transductive", "train"):  # the batch-statistics passes off the tape
            with pytest.raises(DegenerateBatchError):
                embed(one_norm_backbone(2), np.array([[1.0, 2.0]]), mode)

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            embed(one_norm_backbone(2), np.array([[1.0, 2.0], [3.0, 4.0]]), "test")


class TestBackward:
    def test_sum_gives_ones(self):
        x = dc.param(np.zeros((2, 3)))
        dc.backward(dc.tensor_sum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = dc.param([1.0, 2.0])
        dc.backward(dc.tensor_sum(dc.mul(x, x)))
        np.testing.assert_allclose(x.grad, [2.0, 4.0], atol=1e-12)

    def test_accumulation_across_calls(self):
        x = dc.param([1.0, 2.0])
        loss = dc.tensor_sum(dc.mul(x, x))
        dc.backward(loss)
        dc.backward(loss)
        np.testing.assert_allclose(x.grad, [4.0, 8.0], atol=1e-12)
        dc.zero_grads([x])  # the next pass starts from no gradient
        dc.backward(loss)
        dc.backward(loss)
        np.testing.assert_allclose(x.grad, [4.0, 8.0], atol=1e-12)

    def test_root_grad_is_one(self):
        x = dc.param([3.0])
        loss = dc.tensor_sum(dc.mul(x, x))
        dc.backward(loss)
        np.testing.assert_array_equal(loss.grad, np.asarray(1.0))

    def test_non_scalar_rejected(self):
        with pytest.raises(ContractError):
            dc.backward(dc.param([1.0, 2.0]))

    def test_deterministic_bit_identical(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=(4, 4))
        grads = []
        for _ in range(2):
            x = dc.param(vals.copy())
            y = dc.relu(dc.matmul(x, x))
            dc.backward(dc.tensor_mean(dc.mul(y, y)))
            grads.append(x.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_fresh_tensor_grad_reads_as_zeros(self):
        x = dc.param(np.ones((2, 3)))
        np.testing.assert_array_equal(x.grad, np.zeros((2, 3)))
        assert dc.constant([1.0]).grad.shape == (1,)

    def test_zero_grads_resets(self):
        x = dc.param([1.0, 2.0])
        dc.backward(dc.tensor_sum(dc.mul(x, x)))
        dc.zero_grads([x])
        np.testing.assert_array_equal(x.grad, [0.0, 0.0])

    def test_reduction_grads_accumulate_without_writes(self):
        # a reduction passes back a read-only view of its adjoint; a second
        # backward must replace the stored gradient, never write into it
        x = dc.param(np.ones((2, 4)))
        loss = dc.tensor_mean(x)
        dc.backward(loss)
        first = x.grad
        dc.backward(loss)
        np.testing.assert_array_equal(first, np.full((2, 4), 0.125))
        np.testing.assert_array_equal(x.grad, np.full((2, 4), 0.25))

    def test_graph_visits_each_node_once(self):
        x = dc.param([2.0])
        y = dc.mul(x, x)
        loss = dc.tensor_sum(dc.add(y, y))  # diamond: y consumed twice
        graph = dc.ComputeGraph.from_root(loss)
        assert len({id(n) for n in graph.nodes}) == len(graph.nodes)
        graph.run_backward(loss)
        np.testing.assert_allclose(x.grad, [8.0], atol=1e-12)


class TestSgd:
    def test_plain_step(self):
        p = dc.param([5.0])
        p.grad = np.array([2.0])
        dc.sgd_step([p], 1.0, 0.0)
        np.testing.assert_array_equal(p.values, [3.0])

    def test_zero_gradient_is_identity(self):
        p = dc.param([1.5, -2.0])
        dc.sgd_step([p], 0.1, 0.0)
        np.testing.assert_array_equal(p.values, [1.5, -2.0])

    def test_momentum_recurrence(self):
        p = dc.param([0.0])
        for _ in range(2):
            p.grad = np.array([1.0])
            dc.sgd_step([p], 0.1, 0.9)
        np.testing.assert_allclose(p.values, [-0.29], atol=1e-12)

    def test_bits_match_the_formula(self):
        # v <- momentum * v + g; p <- p - lr * v, written out fresh each step
        rng = np.random.default_rng(8)
        start = rng.normal(size=(6, 5))
        p = dc.param(start.copy())
        values, velocity = start.copy(), np.zeros_like(start)
        for step in range(6):
            grad = None if step == 3 else rng.normal(size=start.shape)  # step 3: no gradient arrived
            if grad is not None:
                p.grad = grad
            dc.sgd_step([p], 0.03, 0.9)
            dc.zero_grads([p])
            velocity = 0.9 * velocity + (np.zeros_like(start) if grad is None else grad)
            values = values - 0.03 * velocity
            assert np.array_equal(p.values, values)
            assert np.array_equal(p._velocity, velocity)

    def test_no_gradient_and_no_velocity_is_skipped(self):
        # a parameter no gradient ever reached keeps its array and gets no velocity buffer
        arr = np.array([1.5, -0.0, 2.0])
        p = dc.param(arr)
        for _ in range(3):
            dc.sgd_step([p], 0.1, 0.9)
        assert p.values is arr and p._velocity is None

    def test_velocity_without_a_gradient_still_moves(self):
        p = dc.param([1.0, -1.0])
        p.grad = np.array([2.0, -4.0])
        dc.sgd_step([p], 0.1, 0.5)
        dc.zero_grads([p])
        dc.sgd_step([p], 0.1, 0.5)  # v = 0.5 * (2, -4) = (1, -2); p = (0.8, -0.6) - 0.1 * v
        np.testing.assert_allclose(p.values, [0.7, -0.4], atol=1e-12)
        np.testing.assert_array_equal(p._velocity, [1.0, -2.0])

    def test_caller_array_untouched(self):
        arr = np.array([1.0, -2.0, 0.5])
        p = dc.param(arr)
        assert np.shares_memory(p.values, arr)
        for _ in range(3):
            p.grad = np.array([0.5, 0.25, -1.0])
            dc.sgd_step([p], 0.1, 0.9)
        np.testing.assert_array_equal(arr, [1.0, -2.0, 0.5])
        assert not np.array_equal(p.values, arr)


class TestGradientCheck:
    def test_quadratic(self):
        x = dc.param([1.0, -2.0, 0.5])
        assert gradient_check(lambda t: dc.tensor_sum(dc.mul(t, t)), x, 1e-5) < 1e-6

    def test_linear_is_nearly_exact(self):
        c = dc.constant([2.0, -3.0, 0.25])
        x = dc.param([1.0, 1.0, 1.0])
        assert gradient_check(lambda t: dc.tensor_sum(dc.mul(t, c)), x, 1e-5) < 1e-9


def _away_from_zero(rng, shape, floor=0.05):
    vals = rng.normal(size=shape)
    return np.sign(vals) * (np.abs(vals) + floor)


class TestRandomPointGradients:
    """Every differentiable op passes finite differences at random points."""

    N_POINTS = 10
    TOL = 1e-4

    def test_matmul(self):
        rng = np.random.default_rng(10)
        for _ in range(self.N_POINTS):
            b = dc.constant(rng.normal(size=(3, 2)))
            w = dc.constant(rng.normal(size=(4, 2)))
            x = dc.param(rng.normal(size=(4, 3)))
            assert gradient_check(lambda t: dc.tensor_sum(dc.mul(dc.matmul(t, b), w)), x) < self.TOL

    def test_relu(self):
        rng = np.random.default_rng(11)
        for _ in range(self.N_POINTS):
            x = dc.param(_away_from_zero(rng, (3, 4)))  # keep off the kink
            assert gradient_check(lambda t: dc.tensor_sum(dc.mul(dc.relu(t), dc.relu(t))), x) < self.TOL

    def test_l2_normalize(self):
        rng = np.random.default_rng(12)
        for _ in range(self.N_POINTS):
            c = dc.constant(rng.normal(size=(3, 5)))
            x = dc.param(rng.normal(size=(3, 5)) + 0.5)
            assert gradient_check(lambda t: dc.tensor_sum(dc.mul(dc.l2_normalize(t), c)), x) < self.TOL

    def test_cosine_matrix(self):
        rng = np.random.default_rng(13)
        for _ in range(self.N_POINTS):
            p = dc.constant(rng.normal(size=(4, 5)))
            c = dc.constant(rng.normal(size=(3, 4)))
            x = dc.param(rng.normal(size=(3, 5)))
            assert gradient_check(lambda t: dc.tensor_sum(dc.mul(dc.cosine_matrix(t, p), c)), x) < self.TOL
            w = dc.param(rng.normal(size=(4, 5)))
            q = dc.constant(rng.normal(size=(3, 5)))
            assert gradient_check(lambda t: dc.tensor_sum(dc.mul(dc.cosine_matrix(q, t), c)), w) < self.TOL

    def test_squared_euclidean(self):
        rng = np.random.default_rng(14)
        for _ in range(self.N_POINTS):
            p = dc.constant(rng.normal(size=(4, 3)))
            c = dc.constant(rng.normal(size=(2, 4)))
            x = dc.param(rng.normal(size=(2, 3)))
            assert gradient_check(
                lambda t: dc.tensor_sum(dc.mul(dc.squared_euclidean_matrix(t, p), c)), x
            ) < self.TOL

    def test_batch_norm(self):
        rng = np.random.default_rng(15)
        for _ in range(self.N_POINTS):
            state = dc.BatchNormState.create(3)
            c = dc.constant(rng.normal(size=(5, 3)))
            x = dc.param(rng.normal(size=(5, 3)) * 2.0)
            assert gradient_check(
                lambda t: dc.tensor_sum(dc.mul(dc.batch_norm(t, state), c)), x
            ) < self.TOL


dims = st.integers(1, 4)
seeds = st.integers(0, 2**32 - 1)
BINARY = {"add": dc.add, "sub": dc.sub, "mul": dc.mul, "div": dc.div}
UNARY = {
    # (op, input domain); signed inputs stay at least 0.5 from zero, which
    # keeps relu off its kink, and positive ones are their magnitudes
    "transpose": (dc.transpose, "signed"),
    "reshape": (lambda t: dc.reshape(t, (-1,)), "signed"),
    "relu": (dc.relu, "signed"),
    "exp": (dc.exp, "signed"),
    "log": (dc.log, "positive"),
    "sqrt": (dc.sqrt, "positive"),
    "l2_normalize": (dc.l2_normalize, "signed"),
}


def _weighted_sum(out, seed):
    """A scalar that weighs every output entry differently."""
    return dc.tensor_sum(dc.mul(out, dc.constant(np.random.default_rng(seed).normal(size=out.shape))))


class TestGradientProperties:
    """gradient_check on every diffcore op over random shapes up to 4x4."""

    TOL = 1e-4

    def check(self, fn, values, seed):
        return gradient_check(lambda t: _weighted_sum(fn(t), seed), dc.param(values)) < self.TOL

    @pytest.mark.parametrize("op", sorted(BINARY))
    @given(rows=dims, cols=dims, broadcast=st.sampled_from([None, "left", "right"]), seed=seeds)
    def test_binary(self, op, rows, cols, broadcast, seed):
        rng = np.random.default_rng(seed)
        a = _away_from_zero(rng, (1, cols) if broadcast == "left" else (rows, cols), 0.5)
        b = _away_from_zero(rng, (1, cols) if broadcast == "right" else (rows, cols), 0.5)
        fn = BINARY[op]
        assert self.check(lambda t: fn(t, dc.constant(b)), a, seed)
        assert self.check(lambda t: fn(dc.constant(a), t), b, seed)

    @given(rows=dims, inner=dims, cols=dims, seed=seeds)
    def test_matmul(self, rows, inner, cols, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(rows, inner)), rng.normal(size=(inner, cols))
        assert self.check(lambda t: dc.matmul(t, dc.constant(b)), a, seed)
        assert self.check(lambda t: dc.matmul(dc.constant(a), t), b, seed)

    @pytest.mark.parametrize("op", sorted(UNARY))
    @given(rows=dims, cols=dims, seed=seeds)
    def test_unary(self, op, rows, cols, seed):
        fn, domain = UNARY[op]
        x = _away_from_zero(np.random.default_rng(seed), (rows, cols), 0.5)
        assert self.check(fn, np.abs(x) if domain == "positive" else x, seed)

    @given(rows=dims, cols=dims, floor=st.floats(-1.0, 1.0), seed=seeds)
    def test_clamp_min(self, rows, cols, floor, seed):
        x = floor + _away_from_zero(np.random.default_rng(seed), (rows, cols), 0.5)
        assert self.check(lambda t: dc.clamp_min(t, floor), x, seed)

    @pytest.mark.parametrize("op", [dc.tensor_sum, dc.tensor_mean], ids=["sum", "mean"])
    @given(rows=dims, cols=dims, axis=st.sampled_from([None, 0, 1]), keepdims=st.booleans(), seed=seeds)
    def test_reduction(self, op, rows, cols, axis, keepdims, seed):
        x = np.random.default_rng(seed).normal(size=(rows, cols))
        assert self.check(lambda t: op(t, axis=axis, keepdims=keepdims), x, seed)

    @pytest.mark.parametrize("op", [dc.cosine_matrix, dc.squared_euclidean_matrix], ids=["cosine", "sq_euclidean"])
    @given(rows=dims, protos=dims, dim=dims, seed=seeds)
    def test_pairwise(self, op, rows, protos, dim, seed):
        rng = np.random.default_rng(seed)
        q = _away_from_zero(rng, (rows, dim), 0.5)
        p = _away_from_zero(rng, (protos, dim), 0.5)
        assert self.check(lambda t: op(t, dc.constant(p)), q, seed)
        assert self.check(lambda t: op(dc.constant(q), t), p, seed)

    @given(rows=st.integers(2, 4), cols=dims, seed=seeds)
    def test_batch_norm(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        state = dc.BatchNormState.create(cols)
        # rows at least 1 apart in every column keep the batch variance away from 0
        x = rng.uniform(-1.0, 1.0, size=(rows, cols)) + 3.0 * np.arange(rows)[:, None]
        assert self.check(lambda t: dc.batch_norm(t, state), x, seed)


class TestTensorMeanBits:
    """tensor_mean's forward is np.mean's sum and divide, bit for bit."""

    @pytest.mark.parametrize("axis", [None, 0, 1])
    @pytest.mark.parametrize("keepdims", [False, True])
    @given(x=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=9),
                        elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_equals_np_mean(self, axis, keepdims, x):
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.asarray(np.mean(x, axis=axis, keepdims=keepdims))
            out = dc.tensor_mean(dc.constant(x), axis=axis, keepdims=keepdims).values
        assert out.shape == expected.shape
        assert out.tobytes() == expected.tobytes()
