"""Backbone, fine-tuning loop, inference, snapshots, toy meta-training."""

import json
import struct

import numpy as np
import pytest

import fewtune.diffcore as dc
from fewtune.episodes import build_pseudo_query, sample_episode
from fewtune.errors import ContractError, DataLoadError, QueryIsolationError, ShapeError
from fewtune.fewshot import (
    Backbone,
    BackboneSpec,
    classify_cosine,
    embed,
    finetune,
    infer,
    meta_train,
    pristine_state,
)
from fewtune.imageaug import Image
from fewtune.losses import HyperParams, compute_prototypes
from fewtune.rng import RngStream
from fewtune.synthetic import generate_synthetic, source_domain

SMALL_SPEC = BackboneSpec(input_dim=48, hidden=(16, 12), embed_dim=8)  # 4x4x3 inputs


def small_backbone(seed=0):
    return Backbone.create(SMALL_SPEC, RngStream(seed))


def small_dataset(seed=0, n_classes=6, per_class=24):
    return generate_synthetic(
        source_domain(n_classes=n_classes, images_per_class=per_class, image_size=4),
        RngStream(seed),
    )


def small_episode(seed=0, n=5, k=5, m=5, with_pqs=True):
    ep = sample_episode(small_dataset(), n, k, m, RngStream(seed, (1,)))
    if with_pqs:
        build_pseudo_query(ep, rng=RngStream(seed, (2,)))
    return ep


def snapshot_equal(a: Backbone, b: Backbone) -> bool:
    return a.to_bytes() == b.to_bytes()


class TestBackbone:
    def test_embedding_shape(self):
        bk = small_backbone()
        imgs = [Image(np.random.default_rng(i).uniform(size=(3, 4, 4))) for i in range(7)]
        out = embed(bk, imgs, "eval")
        assert out.shape == (7, 8)

    def test_eval_mode_deterministic(self):
        bk = small_backbone()
        imgs = [Image(np.random.default_rng(0).uniform(size=(3, 4, 4)))] * 3
        a = embed(bk, imgs, "eval").values
        b = embed(bk, imgs, "eval").values
        assert np.array_equal(a, b)
        assert np.array_equal(a[0], a[1])

    def test_eval_independent_of_batch_transductive_not(self):
        bk = small_backbone()
        rng = np.random.default_rng(1)
        base = [Image(rng.uniform(size=(3, 4, 4))) for _ in range(4)]
        shifted = base[:2] + [Image(np.clip(i.pixels * 0.3 + 0.5, 0, 1)) for i in base[2:]]
        eval_a = embed(bk, base, "eval").values[:2]
        eval_b = embed(bk, shifted, "eval").values[:2]
        assert np.array_equal(eval_a, eval_b)
        td_a = embed(bk, base, "transductive").values[:2]
        td_b = embed(bk, shifted, "transductive").values[:2]
        assert not np.allclose(td_a, td_b)

    def test_wrong_input_size(self):
        bk = small_backbone()
        with pytest.raises(ShapeError):
            embed(bk, [Image(np.zeros((3, 5, 5)))], "eval")

    def test_clone_is_deep(self):
        bk = small_backbone()
        other = bk.clone()
        other.dense[0].weight.values[0, 0] += 1.0
        other.norms[0].running_mean[0, 0] += 1.0
        assert bk.dense[0].weight.values[0, 0] != other.dense[0].weight.values[0, 0]
        assert bk.norms[0].running_mean[0, 0] != other.norms[0].running_mean[0, 0]

    def test_snapshot_round_trip_bit_exact(self, tmp_path):
        bk = small_backbone(3)
        # dirty the running stats so they are non-trivial
        imgs = [Image(np.random.default_rng(i).uniform(size=(3, 4, 4))) for i in range(4)]
        embed(bk, imgs, "train")
        path = tmp_path / "bk.snap"
        bk.save(path)
        back = Backbone.load(path)
        assert snapshot_equal(bk, back)
        for a, b in zip(bk.parameters(), back.parameters()):
            assert np.array_equal(a.values, b.values)
        for na, nb in zip(bk.norms, back.norms):
            assert np.array_equal(na.running_mean, nb.running_mean)
            assert np.array_equal(na.running_var, nb.running_var)

    def test_create_deterministic(self):
        assert snapshot_equal(small_backbone(7), small_backbone(7))
        assert not snapshot_equal(small_backbone(7), small_backbone(8))


def tiny_snapshot() -> bytes:
    return Backbone.create(BackboneSpec(input_dim=3, hidden=(2,), embed_dim=2), RngStream(5)).to_bytes()


def with_header(blob: bytes, header) -> bytes:
    """`blob` with its JSON header replaced by `header` (bytes are written as given)."""
    old_len = struct.unpack("<I", blob[8:12])[0]
    head = header if isinstance(header, bytes) else json.dumps(header).encode()
    return blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + old_len :]


def header_of(blob: bytes) -> dict:
    return json.loads(blob[12 : 12 + struct.unpack("<I", blob[8:12])[0]])


class TestSnapshotErrors:
    def test_every_truncation_is_a_data_error(self):
        blob = tiny_snapshot()
        Backbone.from_bytes(blob)
        for end in range(len(blob)):
            with pytest.raises(DataLoadError):
                Backbone.from_bytes(blob[:end])

    def test_trailing_bytes_rejected(self):
        with pytest.raises(DataLoadError, match="stray bytes"):
            Backbone.from_bytes(tiny_snapshot() + b"\0")

    @pytest.mark.parametrize("edit", [
        lambda h: b"\xff\xfe",
        lambda h: b"[1, 2",
        lambda h: [h],
        lambda h: {"arrays": h["arrays"]},
        lambda h: {"spec": h["spec"]},
        lambda h: dict(h, spec=dict(h["spec"], hidden=3)),
        lambda h: dict(h, spec=dict(h["spec"], hidden=[0])),
        lambda h: dict(h, arrays=h["arrays"][1:]),
        lambda h: dict(h, arrays=[dict(h["arrays"][0], name="dense9.weight"), *h["arrays"][1:]]),
        lambda h: dict(h, arrays=[dict(h["arrays"][0], shape=[2, 3]), *h["arrays"][1:]]),
    ], ids=["not-utf8", "not-json", "not-object", "no-spec", "no-arrays", "hidden-not-list",
            "zero-width", "array-missing", "array-renamed", "array-reshaped"])
    def test_bad_header_is_a_data_error(self, edit):
        blob = tiny_snapshot()
        with pytest.raises(DataLoadError):
            Backbone.from_bytes(with_header(blob, edit(header_of(blob))))

    def test_unchanged_header_still_loads(self):
        blob = tiny_snapshot()
        assert Backbone.from_bytes(with_header(blob, header_of(blob))).spec.hidden == (2,)


class TestClassifyCosine:
    def test_query_at_prototype(self):
        protos = compute_prototypes(dc.constant([[1.0, 0.0], [0.0, 1.0]]), [0, 1])
        preds, scores = classify_cosine(dc.constant([[0.9, 0.1]]), protos)
        assert preds.tolist() == [0]
        assert scores.shape == (1, 2)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        protos = compute_prototypes(dc.constant(rng.normal(size=(4, 6))), [0, 1, 2, 3])
        q = rng.normal(size=(5, 6))
        base, _ = classify_cosine(dc.constant(q), protos)
        scaled, _ = classify_cosine(dc.constant(q * rng.uniform(0.5, 8.0, (5, 1))), protos)
        assert np.array_equal(base, scaled)
        protos2 = compute_prototypes(dc.constant(protos.embeddings.values * 3.7), [0, 1, 2, 3])
        global_scaled, _ = classify_cosine(dc.constant(q), protos2)
        assert np.array_equal(base, global_scaled)

    def test_planar_angles(self):
        def at(deg):
            rad = np.deg2rad(deg)
            return [np.cos(rad), np.sin(rad)]

        protos = compute_prototypes(dc.constant([at(0.0), at(90.0)]), [0, 1])
        preds, _ = classify_cosine(dc.constant([at(10.0)]), protos)
        assert preds.tolist() == [0]

    def test_tie_breaks_to_lowest_index(self):
        protos = compute_prototypes(dc.constant([[1.0, 0.0], [1.0, 0.0]]), [0, 1])
        preds, _ = classify_cosine(dc.constant([[1.0, 0.0]]), protos)
        assert preds.tolist() == [0]


class TestFinetune:
    def test_zero_epochs_keeps_snapshot(self):
        bk = small_backbone()
        ep = small_episode()
        state = finetune(bk, ep, HyperParams(finetune_epochs=0))
        assert snapshot_equal(state.backbone, bk)
        assert state.epochs_run == 0

    def test_requires_pseudo_query(self):
        bk = small_backbone()
        ep = small_episode(with_pqs=False)
        with pytest.raises(ContractError):
            finetune(bk, ep, HyperParams(finetune_epochs=1))

    def test_never_reads_real_query(self):
        bk = small_backbone()
        ep = small_episode()
        finetune(bk, ep, HyperParams(finetune_epochs=3))
        assert ep.query_reads == 0

    def test_query_locked_inside(self):
        # a hostile objective that peeks at the query set must blow up;
        # simulate by reading inside the guard finetune establishes
        ep = small_episode()
        with ep.query_guard():
            with pytest.raises(QueryIsolationError):
                _ = ep.query_images

    def test_pristine_backbone_untouched(self):
        bk = small_backbone()
        before = bk.to_bytes()
        finetune(bk, small_episode(), HyperParams(finetune_epochs=3))
        assert bk.to_bytes() == before

    def test_deterministic(self):
        bk = small_backbone()
        a = finetune(bk, small_episode(seed=4), HyperParams(finetune_epochs=4))
        b = finetune(bk, small_episode(seed=4), HyperParams(finetune_epochs=4))
        assert snapshot_equal(a.backbone, b.backbone)
        assert np.array_equal(a.head.values, b.head.values)
        assert a.loss_history == b.loss_history

    def test_head_rows_unit_norm(self):
        state = finetune(small_backbone(), small_episode(), HyperParams(finetune_epochs=2))
        norms = np.linalg.norm(state.head.values, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_loss_mostly_decreases(self):
        # net decrease first -> last epoch in >= 90% of 100 episodes
        bk = small_backbone()
        wins = 0
        total = 100
        for i in range(total):
            ep = small_episode(seed=100 + i)
            state = finetune(bk, ep, HyperParams(finetune_epochs=15))
            wins += state.loss_history[-1] <= state.loss_history[0]
        assert wins >= 0.9 * total


class TestInfer:
    def test_accuracy_bounds(self):
        bk = small_backbone()
        ep = small_episode()
        acc = infer(pristine_state(bk), ep, HyperParams())
        assert 0.0 <= acc <= 1.0

    def test_constant_embedding_predicts_first_class(self):
        # zero weights make every embedding identical: argmax ties to class
        # 0, so accuracy is the class-0 share, 1/N with balanced queries
        bk = small_backbone()
        for layer in bk.dense:
            layer.weight.values[:] = 0.0
        accs = [
            infer(pristine_state(bk), small_episode(seed=200 + i, with_pqs=False), HyperParams())
            for i in range(20)
        ]
        np.testing.assert_allclose(accs, 0.2, atol=1e-12)

    def test_near_constant_embeddings_chance_level(self):
        rng = np.random.default_rng(3)
        hits = []
        for _ in range(200):
            q = np.ones((20, 6)) + rng.normal(scale=1e-9, size=(20, 6))
            p = np.ones((5, 6)) + rng.normal(scale=1e-9, size=(5, 6))
            labels = rng.integers(0, 5, size=20)
            preds, _ = classify_cosine(dc.constant(q), compute_prototypes(dc.constant(p), np.arange(5)))
            hits.append(np.mean(preds == labels))
        assert abs(np.mean(hits) - 0.2) < 0.05

    def test_transductive_off_batch_independent(self):
        bk = small_backbone()
        ep = small_episode(with_pqs=False)
        hp = HyperParams(transductive=False)
        state = pristine_state(bk)
        support_emb = embed(state.backbone, ep.support_images, "eval")
        protos = compute_prototypes(support_emb, ep.support_labels, ep.n_way)
        full_preds, _ = classify_cosine(embed(state.backbone, ep.query_images, "eval"), protos)
        singles = []
        for img in ep.query_images:
            p, _ = classify_cosine(embed(state.backbone, [img], "eval"), protos)
            singles.append(p[0])
        assert np.array_equal(full_preds, np.asarray(singles))

    def test_self_query_separable_episode(self):
        # query set equal to the support set on a fitted episode
        bk = small_backbone()
        ep = small_episode(seed=9, with_pqs=False)
        ep._query_images = list(ep.support_images)
        ep._query_labels = ep.support_labels.copy()
        state = pristine_state(bk)
        support_emb = embed(state.backbone, ep.support_images, "eval")
        protos = compute_prototypes(support_emb, ep.support_labels, ep.n_way)
        preds, _ = classify_cosine(support_emb, protos)
        separable = bool(np.all(preds == ep.support_labels))
        acc = infer(state, ep, HyperParams(transductive=False))
        if separable:
            assert acc == 1.0


class TestEpisodeIndependence:
    def test_order_invariant(self):
        bk = small_backbone()
        hp = HyperParams(finetune_epochs=3)

        def run(i):
            ep = small_episode(seed=300 + i)
            return infer(finetune(bk, ep, hp), ep, hp)

        forward = [run(i) for i in range(6)]
        permuted_order = [4, 0, 5, 2, 1, 3]
        permuted = {i: run(i) for i in permuted_order}
        for i in range(6):
            assert forward[i] == permuted[i]


class TestMetaTrain:
    def test_zero_epochs_unchanged(self):
        bk = small_backbone()
        out = meta_train(bk, small_dataset(), episodes_per_epoch=5, epochs=0, rng=RngStream(1))
        assert snapshot_equal(out, bk)

    def test_loss_decreases(self):
        finals, firsts = [], []
        for seed in range(5):
            bk = small_backbone(seed)
            history = []
            meta_train(
                bk,
                small_dataset(seed),
                episodes_per_epoch=40,
                epochs=3,
                rng=RngStream(seed),
                on_epoch=lambda e, loss: history.append(loss),
            )
            firsts.append(history[0])
            finals.append(history[-1])
        assert np.median(finals) < np.median(firsts)

    def test_deterministic(self):
        a = meta_train(small_backbone(), small_dataset(), episodes_per_epoch=8, epochs=1, rng=RngStream(2))
        b = meta_train(small_backbone(), small_dataset(), episodes_per_epoch=8, epochs=1, rng=RngStream(2))
        assert snapshot_equal(a, b)

    def test_input_backbone_untouched(self):
        bk = small_backbone()
        before = bk.to_bytes()
        meta_train(bk, small_dataset(), episodes_per_epoch=5, epochs=1, rng=RngStream(3))
        assert bk.to_bytes() == before
