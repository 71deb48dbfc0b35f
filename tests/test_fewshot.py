"""Backbone, fine-tuning loop, inference, snapshots, toy meta-training."""

import hashlib
import json
import re
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fewtune.diffcore as dc
import fewtune.fewshot as fewshot
from fewtune.episodes import EpisodeShape, build_pseudo_query, sample_episode
from fewtune.errors import (
    ContractError,
    DataLoadError,
    DivergenceError,
    ParameterError,
    QueryIsolationError,
    ShapeError,
)
from fewtune.fewshot import (
    MAX_BACKBONE_BYTES,
    Backbone,
    BackboneSpec,
    FinetuneState,
    MetaParams,
    _normalized_rows,
    classify_cosine,
    embed,
    finetune,
    images_to_batch,
    infer,
    meta_train,
    pristine_state,
)
from fewtune.losses import HyperParams, compute_prototypes, finetune_objective
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
    ep = sample_episode(small_dataset(), EpisodeShape(n, k, m), RngStream(seed, (1,)))
    if with_pqs:
        build_pseudo_query(ep, rng=RngStream(seed, (2,)))
    return ep


def snapshot_equal(a: Backbone, b: Backbone) -> bool:
    return a.to_bytes() == b.to_bytes()


class TestBackbone:
    @pytest.mark.parametrize("kwargs, name", [
        ({"input_dim": 0}, "input_dim"), ({"hidden": (4, 0)}, "hidden"), ({"embed_dim": 0}, "embed_dim"),
        ({"input_dim": 12.0}, "input_dim"), ({"hidden": (4, True)}, "hidden"),
    ])
    def test_bad_width_names_the_field(self, kwargs, name):
        with pytest.raises(ParameterError, match=f"^{name} "):
            BackboneSpec(**kwargs)

    # held: every weight, bias and batch-norm row of a 48-input spec, 8 bytes each
    @pytest.mark.parametrize("kwargs, name, held", [
        ({"hidden": (1 << 24,)}, "hidden", 8 * (48 + 1 + 8 + 4) * (1 << 24) + 64),
        ({"hidden": (16, 12), "embed_dim": 1 << 22}, "embed_dim", 8 * (48 * 16 + 16 * 12 + 13 * (1 << 22) + 4 * 28 + 28)),
    ])
    def test_over_the_byte_cap_names_the_widest_field(self, kwargs, name, held):
        with pytest.raises(ParameterError, match=f"^{name} .* hold {held} bytes, above the cap of {MAX_BACKBONE_BYTES}$"):
            BackboneSpec(**dict({"input_dim": 48, "embed_dim": 8}, **kwargs))

    def test_embedding_shape(self):
        bk = small_backbone()
        imgs = np.stack([np.random.default_rng(i).uniform(size=(3, 4, 4)) for i in range(7)])
        out = embed(bk, imgs, "eval")
        assert out.shape == (7, 8)

    def test_eval_mode_deterministic(self):
        bk = small_backbone()
        imgs = np.stack([np.random.default_rng(0).uniform(size=(3, 4, 4))] * 3)
        a = embed(bk, imgs, "eval").values
        b = embed(bk, imgs, "eval").values
        assert np.array_equal(a, b)
        assert np.array_equal(a[0], a[1])

    def test_eval_independent_of_batch_transductive_not(self):
        bk = small_backbone()
        rng = np.random.default_rng(1)
        base = np.stack([rng.uniform(size=(3, 4, 4)) for _ in range(4)])
        shifted = np.concatenate([base[:2], np.clip(base[2:] * 0.3 + 0.5, 0, 1)])
        eval_a = embed(bk, base, "eval").values[:2]
        eval_b = embed(bk, shifted, "eval").values[:2]
        assert np.array_equal(eval_a, eval_b)
        td_a = embed(bk, base, "transductive").values[:2]
        td_b = embed(bk, shifted, "transductive").values[:2]
        assert not np.allclose(td_a, td_b)

    def test_wrong_input_size(self):
        bk = small_backbone()
        with pytest.raises(ShapeError):
            embed(bk, np.zeros((1, 3, 5, 5)), "eval")

    def test_batch_rows_are_the_flattened_images(self):
        rng = np.random.default_rng(4)
        images = np.stack([rng.uniform(size=(3, 4, 4)) for _ in range(7)])
        batch = images_to_batch(images, 48).values
        assert batch.shape == (7, 48) and batch.dtype == np.float64
        for row, img in zip(batch, images):
            assert row.tobytes() == img.reshape(-1).tobytes()

    def test_batch_of_mismatched_shapes(self):
        # 4 x 16 values fill a 2 x 32 batch, but no image has 32
        with pytest.raises(ShapeError, match=r"flatten to \[16\], backbone expects 32"):
            images_to_batch(np.zeros((4, 1, 4, 4)), 32)

    def test_clone_is_deep(self):
        bk = small_backbone()
        for p in bk.parameters():  # give the original gradients and momentum buffers
            p.grad = np.ones_like(p.values)
        dc.sgd_step(bk.parameters(), 0.1, 0.9)
        other = bk.clone()
        for (name, a), (other_name, b) in zip(bk._arrays(), other._arrays(), strict=True):
            assert other_name == name
            assert np.array_equal(a, b), name
            assert not np.shares_memory(a, b), name
        assert all(p._velocity is None and p._grad is None for p in other.parameters())

    def test_snapshot_round_trip_bit_exact(self, tmp_path):
        bk = small_backbone(3)
        # dirty the running stats so they are non-trivial
        imgs = np.stack([np.random.default_rng(i).uniform(size=(3, 4, 4)) for i in range(4)])
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
        lambda h: dict(h, spec=dict(h["spec"], bn_eps=1e-3)),
        lambda h: dict(h, spec=dict(h["spec"], bn_momentum=0.2)),
        lambda h: dict(h, spec=dict(h["spec"], bn_eps="1e-05")),
        lambda h: dict(h, spec=dict(h["spec"], hidden=[1 << 40])),
        lambda h: dict(h, spec=dict(h["spec"], input_dim=3.0)),
    ], ids=["not-utf8", "not-json", "not-object", "no-spec", "no-arrays", "hidden-not-list",
            "zero-width", "array-missing", "array-renamed", "array-reshaped",
            "other-bn-eps", "other-bn-momentum", "bn-eps-as-text", "over-the-byte-cap", "width-as-float"])
    def test_bad_header_is_a_data_error(self, edit):
        blob = tiny_snapshot()
        with pytest.raises(DataLoadError):
            Backbone.from_bytes(with_header(blob, edit(header_of(blob))))

    def test_unchanged_header_still_loads(self):
        blob = tiny_snapshot()
        assert Backbone.from_bytes(with_header(blob, header_of(blob))).spec.hidden == (2,)

    def test_header_without_batch_norm_constants_loads(self):
        blob = tiny_snapshot()
        header = header_of(blob)
        del header["spec"]["bn_eps"], header["spec"]["bn_momentum"]
        assert Backbone.from_bytes(with_header(blob, header)).to_bytes() == blob

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("where, name", [("first", "dense0.weight"), ("last", "norm0.running_var")])
    def test_non_finite_value_is_a_data_error(self, value, where, name):
        blob = bytearray(tiny_snapshot())
        at = 12 + struct.unpack("<I", blob[8:12])[0] if where == "first" else len(blob) - 8
        blob[at : at + 8] = struct.pack("<d", value)
        with pytest.raises(DataLoadError, match=f"^snapshot array {name} holds a NaN or infinite value$"):
            Backbone.from_bytes(bytes(blob))


class TestSnapshotRoundTrip:
    def test_bytes_pinned(self):
        # the snapshot format, header included, is fixed: a change that
        # moves these bytes must bump SNAPSHOT_VERSION and still read 1
        digest = hashlib.sha256(tiny_snapshot()).hexdigest()
        assert digest == "fc408e94bbf92cb541ff61c03edf2a42aba23b7c8a5b4e0f9e3c8b2dad0f4750"

    @given(
        input_dim=st.integers(1, 6),
        hidden=st.lists(st.integers(1, 5), max_size=3).map(tuple),
        embed_dim=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
        cut=st.floats(0.0, 1.0, exclude_max=True),
    )
    def test_bytes_and_forward_survive(self, input_dim, hidden, embed_dim, seed, cut):
        bk = Backbone.create(BackboneSpec(input_dim, hidden, embed_dim), RngStream(seed))
        gen = np.random.default_rng(seed)
        for norm in bk.norms:  # non-default running statistics, so eval mode reads them
            norm.running_mean = gen.normal(size=norm.running_mean.shape)
            norm.running_var = gen.uniform(0.5, 2.0, size=norm.running_var.shape)
        blob = bk.to_bytes()
        back = Backbone.from_bytes(blob)
        assert back.to_bytes() == blob
        batch = dc.constant(gen.normal(size=(3, input_dim)))
        for mode in ("eval", "transductive"):
            np.testing.assert_array_equal(back.forward(batch, mode).values, bk.forward(batch, mode).values)
        with pytest.raises(DataLoadError):
            Backbone.from_bytes(blob[: int(cut * len(blob))])


class TestSnapshotCap:
    def test_widest_cli_spec_round_trips_under_the_cap(self, tmp_path):
        # 65 536 widths of 1 fill one --hidden argument ("1," each, in the 128 KiB an argument
        # may take); the arrays are built directly, which is faster than `create`'s draws
        spec = BackboneSpec(input_dim=48, hidden=(1,) * 65536, embed_dim=32)
        arrays = [np.full(shape, float(i)) for i, (_, shape) in enumerate(fewshot._layout(spec))]
        path = tmp_path / "wide.snap"
        Backbone(spec, arrays).save(path)
        with open(path, "rb") as f:
            assert struct.unpack("<I", f.read(12)[8:])[0] > 16 << 20  # a header of over 16 MiB
        assert path.stat().st_size <= fewshot.MAX_SNAPSHOT_BYTES
        back = Backbone.load(path)
        assert back.spec == spec
        assert all(np.array_equal(a, b) for (_, a), b in zip(back._arrays(), arrays, strict=True))

    def test_to_bytes_refuses_a_snapshot_above_the_cap(self, monkeypatch):
        blob = tiny_snapshot()
        monkeypatch.setattr(fewshot, "MAX_SNAPSHOT_BYTES", len(blob))
        assert Backbone.from_bytes(blob).to_bytes() == blob
        monkeypatch.setattr(fewshot, "MAX_SNAPSHOT_BYTES", len(blob) - 1)
        with pytest.raises(ParameterError, match=f"^a snapshot of {len(blob)} bytes is above the cap of {len(blob) - 1}$"):
            Backbone.from_bytes(blob).to_bytes()

    def test_a_file_that_grows_after_the_check_reads_as_stray_bytes(self, tmp_path, monkeypatch):
        path = tmp_path / "b.snap"
        path.write_bytes(tiny_snapshot())
        monkeypatch.setattr(fewshot, "MAX_SNAPSHOT_BYTES", path.stat().st_size)

        def grow_then_open(file, mode):
            with open(file, "ab") as f:
                f.write(bytes(100))
            return open(file, mode)

        monkeypatch.setattr(fewshot, "open", grow_then_open, raising=False)
        with pytest.raises(DataLoadError, match="^1 stray bytes after the last snapshot array$"):
            Backbone.load(path)


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
        protos2 = compute_prototypes(dc.constant(protos.values * 3.7), [0, 1, 2, 3])
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
        assert state.loss_history == []

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

    def test_objective_cannot_read_the_query(self, monkeypatch):
        # every step runs with the query set locked
        ep = small_episode()

        def peeking(*args):
            _ = ep.query_images
            return finetune_objective(*args)

        monkeypatch.setattr(fewshot, "finetune_objective", peeking)
        with pytest.raises(QueryIsolationError):
            finetune(small_backbone(), ep, HyperParams(finetune_epochs=2))

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

    def test_batch_norm_statistics_per_batch(self, monkeypatch):
        # each step normalizes the support and the pseudo batch with its own
        # batch statistics, and so updates every layer's running stats twice
        bk = small_backbone()
        ep = small_episode()
        seen = []
        batch_norm = dc.batch_norm

        def spy(x, state, mode):
            out = batch_norm(x, state, mode)
            if mode == "train":
                x_hat = (out.values - state.beta.values) / state.gamma.values
                seen.append((len(seen) % len(bk.norms), x.values.copy(), x_hat))
            return out

        monkeypatch.setattr(dc, "batch_norm", spy)
        epochs = 3
        state = finetune(bk, ep, HyperParams(finetune_epochs=epochs))

        rows = [x.shape[0] for layer, x, _ in seen if layer == 0]
        assert rows == [len(ep.support_images), len(ep.pseudo_images)] * epochs
        for _, _, x_hat in seen:
            np.testing.assert_allclose(x_hat.mean(axis=0), 0.0, atol=1e-9)
        for i, norm in enumerate(state.backbone.norms):
            mean, var = bk.norms[i].running_mean, bk.norms[i].running_var
            for layer, x, _ in seen:
                if layer == i:
                    mean = (1.0 - dc.BN_MOMENTUM) * mean + dc.BN_MOMENTUM * x.mean(axis=0, keepdims=True)
                    var = (1.0 - dc.BN_MOMENTUM) * var + dc.BN_MOMENTUM * x.var(axis=0, keepdims=True)
            np.testing.assert_allclose(norm.running_mean, mean, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(norm.running_var, var, rtol=1e-12, atol=1e-12)

    def test_bits_pinned(self):
        # sha256 of the loss history, the adapted backbone snapshot and the
        # head; a change to the fine-tune step that moves any bit fails here.
        # The digest was taken with numpy 2.4 on x86-64 OpenBLAS; another
        # BLAS may round the matmuls differently. At these widths it is the
        # same at 1, 2 and 4 OpenBLAS threads, but at the paper's widths the
        # thread count moves bits too (the `X @ basis` gemm by about 1e-15),
        # which is why every scoring pass runs OpenBLAS on one thread.
        # The digest it held before the row-space fine-tune is kept by the
        # full-space reference loop (TestRowSpaceFinetune).
        state = finetune(small_backbone(), small_episode(seed=3), HyperParams(finetune_epochs=5))
        assert finetune_digest(state) == "e7a52508e4865ffdf96f9c79ad2e9f1585067431c121f7c151b6a3c09f266f81"

    def test_post_run_check_sees_the_returned_arrays(self, monkeypatch):
        # the divergence check after the last step reads the adapted
        # backbone that finetune returns, not the coordinate copy it trained
        checked = []
        train = fewshot._train

        def spy(params, steps, learning_rate, momentum, history, state):
            train(params, steps, learning_rate, momentum, history, state)
            checked.extend(state())

        monkeypatch.setattr(fewshot, "_train", spy)
        result = finetune(small_backbone(), small_episode(), HyperParams(finetune_epochs=3))
        returned = [*result.backbone._arrays(), ("head", result.head.values)]
        assert [name for name, _ in checked] == [name for name, _ in returned]
        for (name, a), (_, b) in zip(checked, returned):
            assert a.shape == b.shape and np.array_equal(a, b), name

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


def cut_free_relu(a):
    """relu whose backward always passes its adjoint on, zeros included."""
    return dc._node(np.maximum(a.values, 0.0), (a,), lambda g: (g * (a.values > 0.0),))


def objective_grads(state, ep, hp):
    """Every parameter's gradient after one backward of the fine-tune
    objective at `state`, and whether the support embeddings got any."""
    work = state.backbone.clone()
    head = dc.param(state.head.values.copy())
    support = work.forward(images_to_batch(ep.support_images, work.spec.input_dim), "train")
    pseudo = work.forward(images_to_batch(ep.pseudo_images, work.spec.input_dim), "train")
    dc.backward(finetune_objective(support, ep.support_labels, pseudo, ep.pseudo_labels, head, hp))
    return [p.grad for p in work.parameters() + [head]], support._grad is not None


class TestDeadBranchCut:
    """Dropping relu's all-zero adjoints changes no parameter gradient and no tape."""

    # first step from a random init: the triplet hinge has active terms;
    # after 50 epochs on this episode every hinge term is off
    @pytest.mark.parametrize("epochs, hinge_live", [(0, True), (50, False)], ids=["live", "dead"])
    def test_grads_equal_cut_free(self, monkeypatch, epochs, hinge_live):
        hp = HyperParams()
        ep = small_episode(seed=2)
        state = finetune(small_backbone(), ep, HyperParams(finetune_epochs=epochs))
        cut, support_reached = objective_grads(state, ep, hp)
        assert support_reached is hinge_live
        monkeypatch.setattr(dc, "relu", cut_free_relu)
        full, support_reached = objective_grads(state, ep, hp)
        assert support_reached
        assert len(cut) == len(full)
        for a, b in zip(cut, full):
            assert np.array_equal(a, b)

    def test_paper_shape_step_has_117_tape_nodes(self, monkeypatch):
        ep = paper_shape_episode(6)
        nodes = []
        from_root = dc.ComputeGraph.from_root

        def counting(root):
            graph = from_root(root)
            nodes.append(len(graph.nodes))
            return graph

        monkeypatch.setattr(dc.ComputeGraph, "from_root", counting)
        finetune(Backbone.create(BackboneSpec(), RngStream(6)), ep, HyperParams(finetune_epochs=1))
        assert len(ep.pseudo_images) == 100
        assert nodes == [117]


def full_space_finetune(bk, ep, hp):
    """`finetune` with the first layer trained on all of its input
    dimensions, as before the row-space fine-tune: the reference that the
    row-space loop must match up to rounding."""
    work = bk.clone()
    with np.errstate(all="ignore"):
        support_batch = images_to_batch(ep.support_images, work.spec.input_dim)
        pseudo_batch = images_to_batch(ep.pseudo_images, work.spec.input_dim)
        init_emb = work.forward(support_batch, "transductive")
        head = dc.param(_normalized_rows(compute_prototypes(init_emb, ep.support_labels, ep.n_way).values))
        params = work.parameters() + [head]
        losses = []
        for _ in range(hp.finetune_epochs):
            support_emb = work.forward(support_batch, "train")
            pseudo_emb = work.forward(pseudo_batch, "train")
            loss = finetune_objective(support_emb, ep.support_labels, pseudo_emb, ep.pseudo_labels, head, hp)
            dc.backward(loss)
            dc.sgd_step(params, hp.learning_rate, hp.momentum)
            head.values = _normalized_rows(head.values)
            dc.zero_grads(params)
            losses.append(float(loss.values))
    return FinetuneState(work, head, losses)


def finetune_digest(state):
    digest = hashlib.sha256()
    digest.update(np.asarray(state.loss_history, dtype="<f8").tobytes())
    digest.update(state.backbone.to_bytes())
    digest.update(state.head.values.astype("<f8").tobytes())
    return digest.hexdigest()


def paper_shape_episode(seed):
    ds = generate_synthetic(source_domain(n_classes=5, images_per_class=8), RngStream(seed))
    ep = sample_episode(ds, EpisodeShape(5, 5, 3), RngStream(seed, (1,)))
    build_pseudo_query(ep, rng=RngStream(seed, (2,)))
    return ep


class TestRowSpaceFinetune:
    """The first layer trained on coordinates in the row space of the
    episode's images is the full-space fine-tune, up to rounding."""

    # 48 input dimensions against 125 images: the basis is a rotation;
    # 768 against 125: the first layer trains on 125 coordinates
    @pytest.mark.parametrize("paper_widths", [False, True], ids=["rotation", "row-space"])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_matches_full_space(self, paper_widths, seed):
        if paper_widths:
            bk, ep = Backbone.create(BackboneSpec(), RngStream(seed)), paper_shape_episode(seed)
        else:
            bk, ep = small_backbone(seed), small_episode(seed=seed)
        hp = HyperParams(finetune_epochs=30)
        state, ref = finetune(bk, ep, hp), full_space_finetune(bk, ep, hp)
        np.testing.assert_allclose(state.loss_history, ref.loss_history, rtol=1e-12, atol=0)
        arrays = [*state.backbone._arrays(), ("head", state.head.values)]
        for (name, a), (_, b) in zip(arrays, [*ref.backbone._arrays(), ("head", ref.head.values)]):
            # the pre-batch-norm biases have a zero train-mode gradient and hold only roundoff
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12, err_msg=name)

    def test_first_layer_moves_in_the_row_space(self):
        bk, ep = Backbone.create(BackboneSpec(), RngStream(5)), paper_shape_episode(5)
        state = finetune(bk, ep, HyperParams(finetune_epochs=10))
        images = images_to_batch(np.concatenate([ep.support_images, ep.pseudo_images]), bk.spec.input_dim).values
        delta = state.backbone.dense[0].weight.values - bk.dense[0].weight.values
        coeffs, *_ = np.linalg.lstsq(images.T, delta, rcond=None)
        assert images.shape[0] < images.shape[1]
        assert np.abs(delta).max() > 1e-3
        assert np.abs(delta - images.T @ coeffs).max() <= 1e-12 * np.abs(delta).max()

    def test_reference_is_the_full_space_loop(self):
        # the digest test_bits_pinned held for `finetune` before the
        # row-space fine-tune
        state = full_space_finetune(small_backbone(), small_episode(seed=3), HyperParams(finetune_epochs=5))
        assert finetune_digest(state) == "78a3a98d94a368640542423913e495225247ad557b773d67993b34a8829d64f1"


LAST_STEP = r"^{where}: [\w.]+ diverged to a non-finite value at learning rate 1.7e\+308$"


class TestDivergence:
    """A non-finite loss raises, naming the epoch and the learning rate,
    and no numpy RuntimeWarning is issued on the way."""

    @pytest.fixture(autouse=True)
    def warnings_are_errors(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            yield

    def test_finetune(self):
        with pytest.raises(DivergenceError, match=r"^fine-tuning epoch \d+: loss diverged to nan at learning rate 1e\+100$"):
            finetune(small_backbone(), small_episode(), HyperParams(finetune_epochs=5, learning_rate=1e100))

    def test_meta_train(self):
        with pytest.raises(DivergenceError, match=r"^meta-training epoch 0 task \d+: .* at learning rate 1000.0$"):
            meta_train(small_backbone(), small_dataset(), params=MetaParams(episodes_per_epoch=10, epochs=1,
                       learning_rate=1e3), rng=RngStream(1))

    # at this learning rate the one step's loss is finite but its update overflows
    def test_finetune_last_step(self):
        with pytest.raises(DivergenceError, match=LAST_STEP.format(where="fine-tuning epoch 0")):
            finetune(small_backbone(), small_episode(), HyperParams(finetune_epochs=1, learning_rate=1.7e308))

    def test_meta_train_last_step(self):
        with pytest.raises(DivergenceError, match=LAST_STEP.format(where="meta-training epoch 0 task 0")):
            meta_train(small_backbone(), small_dataset(), params=MetaParams(episodes_per_epoch=1, epochs=1,
                       learning_rate=1.7e308), rng=RngStream(1))

    # finite weights too large for the forward pass: the query scores are
    # NaN, which argmax used to read as class 0
    @pytest.mark.parametrize("transductive", [True, False])
    def test_infer_overflow(self, transductive):
        state = pristine_state(small_backbone())
        for layer in state.backbone.dense:
            layer.weight.values = layer.weight.values * 1e150
        with pytest.raises(DivergenceError, match=r"^inference: a query score is not finite$"):
            infer(state, small_episode(with_pqs=False), HyperParams(transductive=transductive))


class TestBlowUpWarning:
    """A run whose loss peaks above BLOWUP_RATIO times the first loss, but stays finite, logs one warning."""

    PEAKED = r"^{run}: loss peaked at (\S+) at {step}, (\S+) times the first loss$"

    def test_large_learning_rate_warns_once(self, caplog):
        with caplog.at_level("WARNING", logger="fewtune"):
            state = finetune(small_backbone(), small_episode(), HyperParams(finetune_epochs=20, learning_rate=1.0))
        [message] = caplog.messages
        peak, epoch, ratio = re.fullmatch(self.PEAKED.format(run="fine-tuning", step=r"epoch (\d+)"), message).groups()
        history = state.loss_history
        assert float(peak) == pytest.approx(max(history), rel=1e-2) and float(ratio) > fewshot.BLOWUP_RATIO
        assert history[int(epoch)] == max(history)

    def test_default_runs_never_warn(self, caplog):
        with caplog.at_level("WARNING", logger="fewtune"):
            for seed in range(3):
                finetune(small_backbone(), small_episode(seed=seed), HyperParams())
            meta_train(small_backbone(), small_dataset(), params=MetaParams(episodes_per_epoch=20, epochs=3),
                       rng=RngStream(1))
        assert caplog.messages == []

    def test_one_warning_per_run(self, caplog):
        # three meta-training epochs of scripted losses; only epoch 1 peaks above the ratio times the first loss
        losses = {0: [2.0, 1.0, 3.0], 1: [0.5, 2e3 + 1, 1e4, 1.0], 2: [1.5, 1.9e3]}
        steps = ((f"meta-training epoch {e}", f"task {t}", dc.param(np.array(loss)))
                 for e, curve in losses.items() for t, loss in enumerate(curve))
        history = []
        with caplog.at_level("WARNING", logger="fewtune"):
            fewshot._train([], steps, 0.1, 0.9, history, list)
        assert history == [loss for curve in losses.values() for loss in curve]
        assert caplog.messages == ["meta-training epoch 1: loss peaked at 1e+04 at task 2, 5e+03 times the first loss"]


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
            p, _ = classify_cosine(embed(state.backbone, img[None], "eval"), protos)
            singles.append(p[0])
        assert np.array_equal(full_preds, np.asarray(singles))

    def test_self_query_separable_episode(self):
        # query set equal to the support set on a fitted episode
        bk = small_backbone()
        ep = small_episode(seed=9, with_pqs=False)
        ep._query_images = ep.support_images.copy()
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


class TestSharedArrays:
    def test_nothing_writes_a_shared_array(self):
        # episodes read the snapshot's and the dataset's arrays without copying
        # them, so any write into one raises here instead of leaking into the next
        bk, ds = small_backbone(), small_dataset()
        for _, a in bk._arrays():
            a.flags.writeable = False
        for pool in ds.images.values():
            pool.flags.writeable = False
        before = bk.to_bytes()
        ep = build_pseudo_query(sample_episode(ds, EpisodeShape(5, 5, 5), RngStream(0, (1,))), RngStream(0, (2,)))
        for epochs in (0, 3):
            hp = HyperParams(finetune_epochs=epochs)
            for state in (finetune(bk, ep, hp), pristine_state(bk)):
                for transductive in (True, False):
                    infer(state, ep, replace(hp, transductive=transductive))
        meta_train(bk, ds, params=MetaParams(episodes_per_epoch=5, epochs=1), rng=RngStream(3))
        assert bk.to_bytes() == before


class TestMetaTrain:
    def test_zero_epochs_unchanged(self):
        bk = small_backbone()
        out = meta_train(bk, small_dataset(), params=MetaParams(episodes_per_epoch=5, epochs=0), rng=RngStream(1))
        assert snapshot_equal(out, bk)

    def test_loss_decreases(self):
        finals, firsts = [], []
        for seed in range(5):
            bk = small_backbone(seed)
            history = []
            meta_train(
                bk,
                small_dataset(seed),
                params=MetaParams(episodes_per_epoch=40, epochs=3),
                rng=RngStream(seed),
                on_epoch=lambda e, loss: history.append(loss),
            )
            firsts.append(history[0])
            finals.append(history[-1])
        assert np.median(finals) < np.median(firsts)

    def test_bits_pinned(self):
        # sha256 of the trained snapshot and the per-epoch mean losses; a
        # change to the meta-training step that moves any bit fails here.
        # The digest was taken with numpy 2.4 on x86-64 OpenBLAS; another
        # BLAS may round the matmuls differently.
        ds = generate_synthetic(source_domain(n_classes=6, images_per_class=12, image_size=8), RngStream(1))
        bk = Backbone.create(BackboneSpec(192, (32, 16), 8), RngStream(2))
        means = []
        out = meta_train(bk, ds, EpisodeShape(3, 2, 3), MetaParams(episodes_per_epoch=20, epochs=3),
                         rng=RngStream(3), on_epoch=lambda epoch, loss: means.append(loss))
        assert hashlib.sha256(out.to_bytes()).hexdigest() == (
            "025602b494c8bc580cd8a7205d06a021f4eba3d7bdf0239cc73195d9f0aea56b"
        )
        assert means == [0.5221960650442077, 0.1270878076411695, 0.1060681450697388]

    def test_deterministic(self):
        params = MetaParams(episodes_per_epoch=8, epochs=1)
        a = meta_train(small_backbone(), small_dataset(), params=params, rng=RngStream(2))
        b = meta_train(small_backbone(), small_dataset(), params=params, rng=RngStream(2))
        assert snapshot_equal(a, b)

    @pytest.mark.parametrize("name, value", [
        ("episodes_per_epoch", 0), ("epochs", -1), ("learning_rate", 0.0), ("momentum", 1.0),
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
    ])
    def test_bad_argument_rejected_before_training(self, name, value):
        # the message starts with the field's name, which the CLI swaps for its flag
        with pytest.raises(ParameterError, match=f"^{name} "):
            MetaParams(**{"episodes_per_epoch": 5, "epochs": 1, name: value})

    def test_input_backbone_untouched(self):
        bk = small_backbone()
        before = bk.to_bytes()
        meta_train(bk, small_dataset(), params=MetaParams(episodes_per_epoch=5, epochs=1), rng=RngStream(3))
        assert bk.to_bytes() == before
