"""Loss functions against closed forms and brute-force oracles."""

import numpy as np
import pytest

import fewtune.diffcore as dc
from fewtune.errors import ContractError, ParameterError
from fewtune.losses import (
    HyperParams,
    compute_prototypes,
    cosface_loss,
    finetune_objective,
    proto_xent,
    ptloss,
)

from helpers import gradient_check


def ptloss_bruteforce(support, labels, protos, margin):
    """Independent triple-loop evaluation with matched summation order."""
    b, n = support.shape[0], protos.shape[0]
    contrib = np.zeros((b, n))
    for i in range(b):
        d = support[i] - protos[labels[i]]
        d_pos = np.sqrt(np.sum(d * d))
        for j in range(n):
            if j == labels[i]:
                continue
            d = support[i] - protos[j]
            d_neg = np.sqrt(np.sum(d * d))
            contrib[i, j] = max(0.0, d_pos - d_neg + margin)
    return np.sum(contrib)


def scaled_cosine_xent(embeddings, labels, weights, s):
    """Reference softmax cross-entropy over s-scaled cosines (numpy only)."""
    e = embeddings / np.linalg.norm(embeddings, axis=1, keepdims=True)
    w = weights / np.linalg.norm(weights, axis=1, keepdims=True)
    logits = s * (e @ w.T)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return -np.mean(log_probs[np.arange(len(labels)), labels])


def random_episode(rng, n, k, d):
    support = rng.normal(size=(n * k, d))
    labels = np.repeat(np.arange(n), k)
    protos = np.stack([support[labels == j].mean(axis=0) for j in range(n)])
    return support, labels, protos


class TestHyperParams:
    def test_published_defaults(self):
        hp = HyperParams()
        assert hp.episodes_count == 600
        assert hp.finetune_epochs == 100
        assert hp.triplet_margin == 1.0
        assert hp.lmm_scale == 30.0
        assert hp.lmm_margin == 0.35
        assert hp.transductive is True

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lmm_scale": 0.0},
            {"lmm_margin": 1.0},
            {"lmm_margin": -0.1},
            {"triplet_margin": -1.0},
            {"ptloss_weight": -0.5},
            {"learning_rate": 0.0},
            {"momentum": 1.0},
            {"episodes_count": 0},
            {"finetune_epochs": -1},
            {"lmm_scale": float("nan")},
            {"lmm_scale": float("inf")},
            {"triplet_margin": float("nan")},
            {"triplet_margin": float("inf")},
            {"ptloss_weight": float("nan")},
            {"ptloss_weight": float("inf")},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
        ],
    )
    def test_validation(self, kwargs):
        # the message starts with the field's name, which the CLI swaps for its flag
        with pytest.raises(ParameterError, match=f"^{next(iter(kwargs))} "):
            HyperParams(**kwargs)


class TestComputePrototypes:
    def test_single_shot_copies_embeddings(self):
        emb = dc.constant([[1.0, 2.0], [3.0, 4.0]])
        protos = compute_prototypes(emb, [0, 1])
        np.testing.assert_allclose(protos.values, emb.values, atol=1e-15)

    def test_midpoint(self):
        emb = dc.constant([[0.0, 0.0], [2.0, 2.0], [5.0, 5.0]])
        protos = compute_prototypes(emb, [0, 0, 1])
        np.testing.assert_allclose(protos.values[0], [1.0, 1.0], atol=1e-15)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(10, 4))
        labels = np.repeat(np.arange(5), 2)
        order = rng.permutation(10)
        a = compute_prototypes(dc.constant(emb), labels).values
        b = compute_prototypes(dc.constant(emb[order]), labels[order]).values
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_missing_class(self):
        with pytest.raises(ContractError, match=r"\[2\]"):
            compute_prototypes(dc.constant([[1.0], [2.0]]), [0, 1], n_way=3)

    def test_differentiable(self):
        rng = np.random.default_rng(1)
        labels = [0, 0, 1, 1]
        c = dc.constant(rng.normal(size=(2, 3)))
        x = dc.param(rng.normal(size=(4, 3)))
        err = gradient_check(
            lambda t: dc.tensor_sum(dc.mul(compute_prototypes(t, labels), c)), x
        )
        assert err < 1e-4


class TestPtloss:
    def test_separated_pair_is_zero(self):
        emb = dc.constant([[0.0, 0.0], [2.0, 0.0]])
        labels = [0, 1]
        protos = compute_prototypes(emb, labels)
        out = ptloss(emb, labels, protos, 1.0)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_close_pair(self):
        emb = dc.constant([[0.0, 0.0], [0.5, 0.0]])
        labels = [0, 1]
        protos = compute_prototypes(emb, labels)
        out = ptloss(emb, labels, protos, 1.0)
        np.testing.assert_allclose(out.values, 1.0, atol=1e-15)

    def test_translation_invariant(self):
        rng = np.random.default_rng(2)
        support, labels, protos = random_episode(rng, 3, 2, 4)
        a = ptloss(dc.constant(support), labels, compute_prototypes(dc.constant(support), labels), 1.0)
        shifted = support + 13.7
        b = ptloss(dc.constant(shifted), labels, compute_prototypes(dc.constant(shifted), labels), 1.0)
        np.testing.assert_allclose(a.values, b.values, atol=1e-9)

    def test_matches_bruteforce_bit_exact(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, 6))
            d = int(rng.integers(1, 9))
            support, labels, protos = random_episode(rng, n, k, d)
            margin = float(rng.uniform(0.0, 2.0))
            ours = ptloss(dc.constant(support), labels, compute_prototypes(dc.constant(support), labels), margin)
            # the oracle consumes the same prototype values
            proto_vals = compute_prototypes(dc.constant(support), labels).values
            reference = ptloss_bruteforce(support, labels, proto_vals, margin)
            assert float(ours.values) == reference

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            support, labels, _ = random_episode(rng, 4, 3, 5)
            protos = compute_prototypes(dc.constant(support), labels)
            assert float(ptloss(dc.constant(support), labels, protos, 0.5).values) >= 0.0

    def test_zero_when_clusters_far_apart(self):
        rng = np.random.default_rng(5)
        centers = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        support = np.repeat(centers, 4, axis=0) + rng.normal(scale=0.05, size=(12, 2))
        labels = np.repeat(np.arange(3), 4)
        protos = compute_prototypes(dc.constant(support), labels)
        assert float(ptloss(dc.constant(support), labels, protos, 1.0).values) == 0.0

    def test_single_class_rejected(self):
        emb = dc.constant([[1.0, 2.0]])
        protos = compute_prototypes(emb, [0])
        with pytest.raises(ContractError):
            ptloss(emb, [0], protos, 1.0)

    def test_negative_margin_rejected(self):
        emb = dc.constant([[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ParameterError):
            ptloss(emb, [0, 1], compute_prototypes(emb, [0, 1]), -0.5)


class TestCosfaceLoss:
    def test_zero_margin_equals_scaled_softmax(self):
        rng = np.random.default_rng(6)
        emb = rng.normal(size=(6, 4))
        weights = rng.normal(size=(3, 4))
        labels = rng.integers(0, 3, size=6)
        ours = cosface_loss(dc.constant(emb), labels, dc.constant(weights), 30.0, 0.0)
        ref = scaled_cosine_xent(emb, labels, weights, 30.0)
        assert abs(float(ours.values) - ref) < 1e-12

    def test_perfectly_separated_is_tiny(self):
        emb = dc.constant([[1.0, 0.0]])
        weights = dc.constant([[1.0, 0.0], [-1.0, 0.0]])
        out = cosface_loss(emb, [0], weights, 30.0, 0.35)
        expected = np.log1p(np.exp(-30.0 - 19.5))  # -log(e^19.5 / (e^19.5 + e^-30)) ~ 3.2e-22
        assert abs(float(out.values) - expected) < 1e-20
        assert 0.0 <= float(out.values) < 1e-20

    def test_orthogonal_embedding_closed_form(self):
        emb = dc.constant([[0.0, 0.0, 1.0]])
        weights = dc.constant([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        for m in (0.0, 0.2, 0.35):
            out = cosface_loss(emb, [0], weights, 30.0, m)
            expected = -np.log(np.exp(-30.0 * m) / (np.exp(-30.0 * m) + 1.0))
            np.testing.assert_allclose(float(out.values), expected, atol=1e-12)

    def test_strictly_increasing_in_margin(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            emb = rng.normal(size=(4, 5))
            weights = rng.normal(size=(3, 5))
            labels = rng.integers(0, 3, size=4)
            s = float(rng.uniform(5.0, 30.0))
            m1 = float(rng.uniform(0.0, 0.5))
            m2 = m1 + float(rng.uniform(0.05, 0.3))
            l1 = float(cosface_loss(dc.constant(emb), labels, dc.constant(weights), s, m1).values)
            l2 = float(cosface_loss(dc.constant(emb), labels, dc.constant(weights), s, m2).values)
            if l1 < 1e-12:  # saturated instance, no headroom
                continue
            assert l2 > l1

    def test_row_rescaling_invariance(self):
        rng = np.random.default_rng(8)
        emb = rng.normal(size=(5, 4))
        weights = rng.normal(size=(3, 4))
        labels = rng.integers(0, 3, size=5)
        base = float(cosface_loss(dc.constant(emb), labels, dc.constant(weights), 30.0, 0.35).values)
        scaled = emb * rng.uniform(0.1, 10.0, size=(5, 1))
        out = float(cosface_loss(dc.constant(scaled), labels, dc.constant(weights), 30.0, 0.35).values)
        assert abs(out - base) < 1e-9

    def test_parameter_validation(self):
        emb = dc.constant([[1.0, 0.0]])
        w = dc.constant([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ParameterError):
            cosface_loss(emb, [0], w, -1.0, 0.1)
        with pytest.raises(ParameterError):
            cosface_loss(emb, [0], w, 30.0, 1.0)


class TestProtoXent:
    def test_query_at_prototype(self):
        protos = compute_prototypes(dc.constant([[0.0, 0.0], [100.0, 0.0]]), [0, 1])
        out = proto_xent(dc.constant([[0.0, 0.0]]), [0], protos)
        assert float(out.values) < 1e-12

    def test_equidistant_gives_log_n(self):
        protos = compute_prototypes(
            dc.constant([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), [0, 1, 2]
        )
        out = proto_xent(dc.constant([[0.0, 0.0, 0.0]]), [1], protos)
        np.testing.assert_allclose(float(out.values), np.log(3.0), atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(9)
        protos = compute_prototypes(dc.constant(rng.normal(size=(4, 3))), [0, 1, 2, 3])
        labels = rng.integers(0, 4, size=5)
        x = dc.param(rng.normal(size=(5, 3)))
        assert gradient_check(lambda t: proto_xent(t, labels, protos), x) < 1e-4


class TestFinetuneObjective:
    def _episode(self, rng, n=3, k=2, d=4, pseudo=6):
        support = rng.normal(size=(n * k, d))
        s_labels = np.repeat(np.arange(n), k)
        pseudo_emb = rng.normal(size=(pseudo, d))
        p_labels = rng.integers(0, n, size=pseudo)
        weights = rng.normal(size=(n, d))
        return support, s_labels, pseudo_emb, p_labels, weights

    def test_lambda_zero_is_pure_margin_term(self):
        rng = np.random.default_rng(10)
        support, s_labels, pseudo, p_labels, weights = self._episode(rng)
        hp = HyperParams(ptloss_weight=0.0)
        total = finetune_objective(
            dc.constant(support), s_labels, dc.constant(pseudo), p_labels, dc.constant(weights), hp
        )
        margin_only = cosface_loss(dc.constant(pseudo), p_labels, dc.constant(weights), hp.lmm_scale, hp.lmm_margin)
        assert float(total.values) == float(margin_only.values)

    def test_m_zero_lambda_zero_is_scaled_softmax(self):
        rng = np.random.default_rng(11)
        support, s_labels, pseudo, p_labels, weights = self._episode(rng)
        hp = HyperParams(ptloss_weight=0.0, lmm_margin=0.0)
        total = finetune_objective(
            dc.constant(support), s_labels, dc.constant(pseudo), p_labels, dc.constant(weights), hp
        )
        ref = scaled_cosine_xent(pseudo, p_labels, weights, hp.lmm_scale)
        assert abs(float(total.values) - ref) < 1e-12

    def test_composition_matches_separate_terms(self):
        rng = np.random.default_rng(12)
        support, s_labels, pseudo, p_labels, weights = self._episode(rng)
        hp = HyperParams(ptloss_weight=0.7)
        total = finetune_objective(
            dc.constant(support), s_labels, dc.constant(pseudo), p_labels, dc.constant(weights), hp
        )
        cf = cosface_loss(dc.constant(pseudo), p_labels, dc.constant(weights), hp.lmm_scale, hp.lmm_margin)
        protos = compute_prototypes(dc.constant(support), s_labels)
        pt = ptloss(dc.constant(support), s_labels, protos, hp.triplet_margin)
        expected = float(cf.values) + hp.ptloss_weight * float(pt.values)
        np.testing.assert_allclose(float(total.values), expected, atol=1e-12)

    def test_empty_pseudo_rejected(self):
        rng = np.random.default_rng(13)
        support, s_labels, _, _, weights = self._episode(rng)
        empty = dc.constant(np.zeros((0, support.shape[1])))
        with pytest.raises(ContractError, match="^fine-tuning objective needs a non-empty pseudo query set$"):
            finetune_objective(
                dc.constant(support), s_labels, empty, [], dc.constant(weights), HyperParams()
            )
