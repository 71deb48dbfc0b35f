"""Backbone, fine-tuning loop, inference, snapshots, toy meta-training."""

import hashlib
import json
import operator
import re
import struct
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fewtune.diffcore as dc
import fewtune.fewshot as fewshot
from fewtune import episodes
from fewtune.episodes import Episode, EpisodeShape, build_pseudo_query, sample_episode
from fewtune.errors import (
    DataLoadError,
    DegenerateBatchError,
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
from fewtune.losses import HyperParams, compute_prototypes, finetune_objective, proto_xent
from fewtune.rng import RngStream
from fewtune.synthetic import generate_synthetic, source_domain
from helpers import gradient_check

SMALL_SPEC = BackboneSpec(input_dim=48, hidden=(16, 12), embed_dim=8)  # 4x4x3 inputs


def small_backbone(seed=0):
    return Backbone.create(SMALL_SPEC, RngStream(seed))


def small_dataset(seed=0, n_classes=6, per_class=24):
    return generate_synthetic(
        source_domain(n_classes=n_classes, images_per_class=per_class, image_size=4),
        RngStream(seed),
    )


def small_episode(seed=0, n=5, k=5, m=5):
    return sample_episode(small_dataset(), EpisodeShape(n, k, m), RngStream(seed, (1,)))


def small_task(seed=0, n=5, k=5, m=5):
    """A small episode and its pseudo query set, the (images, sources) pair `finetune` takes."""
    ep = small_episode(seed, n, k, m)
    return ep, build_pseudo_query(ep, rng=RngStream(seed, (2,)))


def snapshot_equal(a: Backbone, b: Backbone) -> bool:
    return a.to_bytes() == b.to_bytes()


def weights(bk: Backbone) -> list[dc.DiffTensor]:
    """Every dense layer's weight."""
    return [t for name, t in bk.arrays.items() if name.endswith(".weight")]


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
        a = embed(bk, imgs, "eval")
        b = embed(bk, imgs, "eval")
        assert np.array_equal(a, b)
        assert np.array_equal(a[0], a[1])

    def test_eval_independent_of_batch_transductive_not(self):
        bk = small_backbone()
        rng = np.random.default_rng(1)
        base = np.stack([rng.uniform(size=(3, 4, 4)) for _ in range(4)])
        shifted = np.concatenate([base[:2], np.clip(base[2:] * 0.3 + 0.5, 0, 1)])
        eval_a = embed(bk, base, "eval")[:2]
        eval_b = embed(bk, shifted, "eval")[:2]
        assert np.array_equal(eval_a, eval_b)
        td_a = embed(bk, base, "transductive")[:2]
        td_b = embed(bk, shifted, "transductive")[:2]
        assert not np.allclose(td_a, td_b)

    def test_wrong_input_size(self):
        bk = small_backbone()
        with pytest.raises(ShapeError):
            embed(bk, np.zeros((1, 3, 5, 5)), "eval")

    def test_batch_rows_are_the_flattened_images(self):
        rng = np.random.default_rng(4)
        images = np.stack([rng.uniform(size=(3, 4, 4)) for _ in range(7)])
        batch = images_to_batch(images, 48)
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
        running = [name for name in bk.arrays if ".running_" in name]
        assert len(running) == 2 * len(bk.spec.hidden)
        for name in running:
            assert np.array_equal(bk.arrays[name].values, back.arrays[name].values), name

    def test_create_deterministic(self):
        assert snapshot_equal(small_backbone(7), small_backbone(7))
        assert not snapshot_equal(small_backbone(7), small_backbone(8))


# eleven hidden layers name dense10.weight and norm10.gamma: a layer index of two digits
DEPTHS = [(), (5,), (7, 6), tuple(range(2, 13))]


def backbone_digest(spec: BackboneSpec) -> str:
    """sha256 of `create`'s snapshot, then the taped `forward` and `train_forward` of one batch with
    every parameter's gradient and the snapshot after each, then `embed` in every mode and the last snapshot."""
    h = hashlib.sha256()
    bk = Backbone.create(spec, RngStream(11))
    h.update(bk.to_bytes())
    gen = np.random.default_rng(len(spec.hidden))
    rows, mix = gen.normal(size=(5, spec.input_dim)), dc.constant(gen.normal(size=(5, spec.embed_dim)))
    for forward in (lambda: bk.forward(dc.constant(rows)), lambda: bk.train_forward(rows)):
        out = forward()
        dc.backward(dc.tensor_sum(dc.mul(out, mix)))
        h.update(out.values.tobytes())
        for p in bk.parameters():
            h.update(p.grad.tobytes())
        dc.zero_grads(bk.parameters())
        h.update(bk.to_bytes())
    for mode in ("eval", "transductive", "train"):
        h.update(embed(bk, rows, mode).tobytes())
    h.update(bk.to_bytes())
    return h.hexdigest()


class TestLayout:
    """`_layout` alone names and orders a backbone's arrays: `arrays` follows it, the running statistics
    are constants and every other array is a parameter, in the same order."""

    # the digests the backbone held when its layers were objects of their own
    @pytest.mark.parametrize("hidden, digest", zip(DEPTHS, [
        "7d29884f0d4167fa05183328c3e3e4dbc87afb570255c28abfc014fb2ea7c3ec",
        "fb25f9482b61b5e991119290a9da09ce0267ffc37c1c7c8ba2ebd03b7248a762",
        "1c5eccccd25e8a69fd1f84a8a8c4b8c6b3ee052f15326c2420a93e5b830cbd8e",
        "d2d0760cab2885dbaf2e0ffcbfcb83f613febf1aac18c261b2249b29c1df2e85",
    ]), ids=["no-hidden", "one", "two", "eleven"])
    def test_arrays_follow_the_layout(self, hidden, digest):
        spec = BackboneSpec(input_dim=6, hidden=hidden, embed_dim=4)
        bk = Backbone.create(spec, RngStream(11))
        assert list(bk.arrays) == [name for name, _ in fewshot._layout(spec)]
        running = [name for name in bk.arrays if name.split(".")[1] in ("running_mean", "running_var")]
        assert len(running) == 2 * len(hidden)
        assert not any(bk.arrays[name].requires_grad for name in running)
        expected = [t for name, t in bk.arrays.items() if name not in running]
        assert len(bk.parameters()) == len(expected) and all(map(operator.is_, bk.parameters(), expected))
        assert backbone_digest(spec) == digest


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
        for i in range(len(hidden)):  # non-default running statistics, so eval mode reads them
            mean, var = bk.arrays[f"norm{i}.running_mean"], bk.arrays[f"norm{i}.running_var"]
            mean.values = gen.normal(size=mean.shape)
            var.values = gen.uniform(0.5, 2.0, size=var.shape)
        blob = bk.to_bytes()
        back = Backbone.from_bytes(blob)
        assert back.to_bytes() == blob
        batch = gen.normal(size=(3, input_dim))
        for mode in ("eval", "transductive"):
            np.testing.assert_array_equal(embed(back, batch, mode), embed(bk, batch, mode))
        with pytest.raises(DataLoadError):
            Backbone.from_bytes(blob[: int(cut * len(blob))])


class TestSnapshotCap:
    def test_widest_cli_spec_round_trips_under_the_cap(self, tmp_path):
        # 65 536 widths of 1 fill one --hidden argument ("1," each, in the 128 KiB an argument
        # may take); the arrays are built directly, which is faster than `create`'s draws
        spec = BackboneSpec(input_dim=48, hidden=(1,) * 65536, embed_dim=32)
        arrays = {name: np.full(shape, float(i)) for i, (name, shape) in enumerate(fewshot._layout(spec))}
        path = tmp_path / "wide.snap"
        Backbone(spec, arrays).save(path)
        with open(path, "rb") as f:
            assert struct.unpack("<I", f.read(12)[8:])[0] > 16 << 20  # a header of over 16 MiB
        assert path.stat().st_size <= fewshot.MAX_SNAPSHOT_BYTES
        back = Backbone.load(path)
        assert back.spec == spec
        assert all(np.array_equal(a, b) for (_, a), b in zip(back._arrays(), arrays.values(), strict=True))

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
        protos = compute_prototypes(dc.constant([[1.0, 0.0], [0.0, 1.0]]), [0, 1]).values
        preds, scores = classify_cosine(np.array([[0.9, 0.1]]), protos)
        assert preds.tolist() == [0]
        assert scores.shape == (1, 2)

    def test_rescaling_invariance(self):
        rng = np.random.default_rng(2)
        protos = compute_prototypes(dc.constant(rng.normal(size=(4, 6))), [0, 1, 2, 3]).values
        q = rng.normal(size=(5, 6))
        base, _ = classify_cosine(q, protos)
        scaled, _ = classify_cosine(q * rng.uniform(0.5, 8.0, (5, 1)), protos)
        assert np.array_equal(base, scaled)
        protos2 = compute_prototypes(dc.constant(protos * 3.7), [0, 1, 2, 3]).values
        global_scaled, _ = classify_cosine(q, protos2)
        assert np.array_equal(base, global_scaled)

    def test_planar_angles(self):
        def at(deg):
            rad = np.deg2rad(deg)
            return [np.cos(rad), np.sin(rad)]

        protos = compute_prototypes(dc.constant([at(0.0), at(90.0)]), [0, 1]).values
        preds, _ = classify_cosine(np.array([at(10.0)]), protos)
        assert preds.tolist() == [0]

    def test_tie_breaks_to_lowest_index(self):
        protos = compute_prototypes(dc.constant([[1.0, 0.0], [1.0, 0.0]]), [0, 1]).values
        preds, _ = classify_cosine(np.array([[1.0, 0.0]]), protos)
        assert preds.tolist() == [0]


class TestFinetune:
    def test_zero_epochs_keeps_snapshot(self):
        bk = small_backbone()
        state = finetune(bk, *small_task(), HyperParams(finetune_epochs=0))
        assert snapshot_equal(state.backbone, bk)
        assert state.loss_history == []

    def test_never_reads_real_query(self):
        bk = small_backbone()
        ep, pseudo = small_task()
        finetune(bk, ep, pseudo, HyperParams(finetune_epochs=3))
        assert ep.query_reads == 0

    def test_objective_cannot_read_the_query(self, monkeypatch):
        # every step runs with the query set locked
        ep, pseudo = small_task()

        def peeking(*args):
            _ = ep.query_images
            return finetune_objective(*args)

        monkeypatch.setattr(fewshot, "finetune_objective", peeking)
        with pytest.raises(QueryIsolationError):
            finetune(small_backbone(), ep, pseudo, HyperParams(finetune_epochs=2))

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
        finetune(bk, *small_task(), HyperParams(finetune_epochs=3))
        assert bk.to_bytes() == before

    def test_deterministic(self):
        bk = small_backbone()
        a = finetune(bk, *small_task(seed=4), HyperParams(finetune_epochs=4))
        b = finetune(bk, *small_task(seed=4), HyperParams(finetune_epochs=4))
        assert snapshot_equal(a.backbone, b.backbone)
        assert np.array_equal(a.head.values, b.head.values)
        assert a.loss_history == b.loss_history

    def test_head_rows_unit_norm(self):
        state = finetune(small_backbone(), *small_task(), HyperParams(finetune_epochs=2))
        norms = np.linalg.norm(state.head.values, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_batch_norm_statistics_per_batch(self, monkeypatch):
        # each step normalizes the support and the pseudo batch with its own
        # batch statistics, and so updates every layer's running stats twice
        bk = small_backbone()
        ep, pseudo = small_task()
        seen = []
        batch_norm = dc.batch_norm

        def spy(x, gamma, beta, running_mean, running_var):
            out = batch_norm(x, gamma, beta, running_mean, running_var)
            x_hat = (out.values - beta.values) / gamma.values
            seen.append((len(seen) % len(bk.spec.hidden), x.values.copy(), x_hat))
            return out

        monkeypatch.setattr(dc, "batch_norm", spy)
        epochs = 3
        state = finetune(bk, ep, pseudo, HyperParams(finetune_epochs=epochs))

        rows = [x.shape[0] for layer, x, _ in seen if layer == 0]
        assert rows == [len(ep.support_images), len(pseudo[0])] * epochs
        for _, _, x_hat in seen:
            np.testing.assert_allclose(x_hat.mean(axis=0), 0.0, atol=1e-9)
        for i in range(len(bk.spec.hidden)):
            mean, var = bk.arrays[f"norm{i}.running_mean"].values, bk.arrays[f"norm{i}.running_var"].values
            for layer, x, _ in seen:
                if layer == i:
                    mean = (1.0 - dc.BN_MOMENTUM) * mean + dc.BN_MOMENTUM * x.mean(axis=0, keepdims=True)
                    var = (1.0 - dc.BN_MOMENTUM) * var + dc.BN_MOMENTUM * x.var(axis=0, keepdims=True)
            adapted = state.backbone.arrays
            np.testing.assert_allclose(adapted[f"norm{i}.running_mean"].values, mean, rtol=1e-12, atol=1e-12)
            np.testing.assert_allclose(adapted[f"norm{i}.running_var"].values, var, rtol=1e-12, atol=1e-12)

    def test_bits_pinned(self):
        # sha256 of the loss history, the adapted backbone snapshot and the
        # head; a change to the fine-tune step that moves any bit fails here.
        # The digest was taken with numpy 2.4 on x86-64 OpenBLAS; another
        # BLAS may round the matmuls differently. At these widths it is the
        # same at 1, 2 and 4 OpenBLAS threads, but at the paper's widths the
        # thread count moves bits too, which is why `finetune` runs OpenBLAS
        # on one thread whatever its caller's count (TestBlasThreads).
        # The digest it held before the row-space fine-tune is kept by the
        # full-space reference loop (TestRowSpaceFinetune).
        state = finetune(small_backbone(), *small_task(seed=3), HyperParams(finetune_epochs=5))
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
        result = finetune(small_backbone(), *small_task(), HyperParams(finetune_epochs=3))
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
            state = finetune(bk, *small_task(seed=100 + i), HyperParams(finetune_epochs=15))
            wins += state.loss_history[-1] <= state.loss_history[0]
        assert wins >= 0.9 * total


def cut_free_relu(a):
    """relu whose backward always passes its adjoint on, zeros included."""
    return dc.node(np.maximum(a.values, 0.0), (a,), lambda g: (g * (a.values > 0.0),))


def objective_grads(state, ep, pseudo, hp):
    """Every parameter's gradient after one backward of the fine-tune
    objective at `state`, and whether the support embeddings got any."""
    (pseudo_images, pseudo_sources), work = pseudo, state.backbone.clone()
    head = dc.param(state.head.values.copy())
    support = work.forward(dc.constant(images_to_batch(ep.support_images, work.spec.input_dim)))
    pseudo_emb = work.forward(dc.constant(images_to_batch(pseudo_images, work.spec.input_dim)))
    pseudo_labels = ep.support_labels[pseudo_sources]
    dc.backward(finetune_objective(support, ep.support_labels, pseudo_emb, pseudo_labels, head, hp))
    return [p.grad for p in work.parameters() + [head]], support._grad is not None


class TestDeadBranchCut:
    """Dropping relu's all-zero adjoints changes no parameter gradient and no tape."""

    # first step from a random init: the triplet hinge has active terms;
    # after 50 epochs on this episode every hinge term is off
    @pytest.mark.parametrize("epochs, hinge_live", [(0, True), (50, False)], ids=["live", "dead"])
    def test_grads_equal_cut_free(self, monkeypatch, epochs, hinge_live):
        hp = HyperParams()
        ep, pseudo = small_task(seed=2)
        state = finetune(small_backbone(), ep, pseudo, HyperParams(finetune_epochs=epochs))
        cut, support_reached = objective_grads(state, ep, pseudo, hp)
        assert support_reached is hinge_live
        monkeypatch.setattr(dc, "relu", cut_free_relu)
        full, support_reached = objective_grads(state, ep, pseudo, hp)
        assert support_reached
        assert len(cut) == len(full)
        for a, b in zip(cut, full):
            assert np.array_equal(a, b)

    def test_paper_shape_step_has_117_tape_nodes(self, monkeypatch):
        ep, pseudo = paper_shape_task(6)
        nodes = []
        from_root = dc.ComputeGraph.from_root

        def counting(root):
            graph = from_root(root)
            nodes.append(len(graph.nodes))
            return graph

        monkeypatch.setattr(dc.ComputeGraph, "from_root", counting)
        finetune(Backbone.create(BackboneSpec(), RngStream(6)), ep, pseudo, HyperParams(finetune_epochs=1))
        assert len(pseudo[0]) == 100
        assert nodes == [117]


def full_space_finetune(bk, ep, pseudo, hp):
    """`finetune` with the first layer trained on all of its input
    dimensions, as before the row-space fine-tune: the reference that the
    row-space loop must match up to rounding."""
    (pseudo_images, pseudo_sources), work = pseudo, bk.clone()
    with np.errstate(all="ignore"):
        support_batch = dc.constant(images_to_batch(ep.support_images, work.spec.input_dim))
        pseudo_batch = dc.constant(images_to_batch(pseudo_images, work.spec.input_dim))
        pseudo_labels = ep.support_labels[pseudo_sources]
        init_emb = dc.constant(embed(work, ep.support_images, "transductive"))
        head = dc.param(_normalized_rows(compute_prototypes(init_emb, ep.support_labels, ep.n_way).values))
        params = work.parameters() + [head]
        losses = []
        for _ in range(hp.finetune_epochs):
            support_emb = work.forward(support_batch)
            pseudo_emb = work.forward(pseudo_batch)
            loss = finetune_objective(support_emb, ep.support_labels, pseudo_emb, pseudo_labels, head, hp)
            dc.backward(loss)
            dc.sgd_step(params, hp.learning_rate, hp.momentum)
            head.values = _normalized_rows(head.values)
            dc.zero_grads(params)
            losses.append(float(loss.values))
    return FinetuneState(work, head, losses)


def full_space_meta_train(bk, ds, shape, params, rng):
    """`meta_train` as before it gathered rows by index and trained in the
    row space: each task an episode from `sample_episode`, embedded at full
    width. The trained backbone and the per-epoch mean losses."""
    work = bk.clone()
    trainable, means = work.parameters(), []
    for epoch in range(params.epochs):
        losses = []
        for task in range(params.episodes_per_epoch):
            ep = sample_episode(ds, shape, rng.child(epoch * params.episodes_per_epoch + task))
            support_emb, query_emb = (work.forward(dc.constant(images_to_batch(images, work.spec.input_dim)))
                                      for images in (ep.support_images, ep.query_images))
            loss = proto_xent(query_emb, ep.query_labels, compute_prototypes(support_emb, ep.support_labels, ep.n_way))
            dc.backward(loss)
            dc.sgd_step(trainable, params.learning_rate, params.momentum)
            dc.zero_grads(trainable)
            losses.append(float(loss.values))
        means.append(float(np.mean(losses)))
    return work, means


def finetune_digest(state):
    digest = hashlib.sha256()
    digest.update(np.asarray(state.loss_history, dtype="<f8").tobytes())
    digest.update(state.backbone.to_bytes())
    digest.update(state.head.values.astype("<f8").tobytes())
    return digest.hexdigest()


def paper_shape_task(seed):
    ds = generate_synthetic(source_domain(n_classes=5, images_per_class=8), RngStream(seed))
    ep = sample_episode(ds, EpisodeShape(5, 5, 3), RngStream(seed, (1,)))
    return ep, build_pseudo_query(ep, rng=RngStream(seed, (2,)))


class TestRowSpaceFinetune:
    """The first layer trained on coordinates in the row space of the
    episode's images is the full-space fine-tune, up to rounding."""

    # 48 input dimensions against 125 images: the basis is a rotation;
    # 768 against 125: the first layer trains on 125 coordinates
    @pytest.mark.parametrize("paper_widths", [False, True], ids=["rotation", "row-space"])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_matches_full_space(self, paper_widths, seed):
        if paper_widths:
            bk, task = Backbone.create(BackboneSpec(), RngStream(seed)), paper_shape_task(seed)
        else:
            bk, task = small_backbone(seed), small_task(seed=seed)
        hp = HyperParams(finetune_epochs=30)
        state, ref = finetune(bk, *task, hp), full_space_finetune(bk, *task, hp)
        np.testing.assert_allclose(state.loss_history, ref.loss_history, rtol=1e-12, atol=0)
        arrays = [*state.backbone._arrays(), ("head", state.head.values)]
        for (name, a), (_, b) in zip(arrays, [*ref.backbone._arrays(), ("head", ref.head.values)]):
            # the pre-batch-norm biases have a zero train-mode gradient and hold only roundoff
            np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12, err_msg=name)

    def test_first_layer_moves_in_the_row_space(self):
        bk, (ep, pseudo) = Backbone.create(BackboneSpec(), RngStream(5)), paper_shape_task(5)
        state = finetune(bk, ep, pseudo, HyperParams(finetune_epochs=10))
        images = images_to_batch(np.concatenate([ep.support_images, pseudo[0]]), bk.spec.input_dim)
        delta = state.backbone.arrays["dense0.weight"].values - bk.arrays["dense0.weight"].values
        coeffs, *_ = np.linalg.lstsq(images.T, delta, rcond=None)
        assert images.shape[0] < images.shape[1]
        assert np.abs(delta).max() > 1e-3
        assert np.abs(delta - images.T @ coeffs).max() <= 1e-12 * np.abs(delta).max()

    def test_reference_is_the_full_space_loop(self):
        # the digest test_bits_pinned held for `finetune` before the
        # row-space fine-tune
        state = full_space_finetune(small_backbone(), *small_task(seed=3), HyperParams(finetune_epochs=5))
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
            finetune(small_backbone(), *small_task(), HyperParams(finetune_epochs=5, learning_rate=1e100))

    def test_meta_train(self):
        with pytest.raises(DivergenceError, match=r"^meta-training epoch 0 task \d+: .* at learning rate 1000.0$"):
            meta_train(small_backbone(), small_dataset(), params=MetaParams(episodes_per_epoch=10, epochs=1,
                       learning_rate=1e3), rng=RngStream(1))

    # at this learning rate the one step's loss is finite but its update overflows
    def test_finetune_last_step(self):
        with pytest.raises(DivergenceError, match=LAST_STEP.format(where="fine-tuning epoch 0")):
            finetune(small_backbone(), *small_task(), HyperParams(finetune_epochs=1, learning_rate=1.7e308))

    def test_meta_train_last_step(self):
        with pytest.raises(DivergenceError, match=LAST_STEP.format(where="meta-training epoch 0 task 0")):
            meta_train(small_backbone(), small_dataset(), params=MetaParams(episodes_per_epoch=1, epochs=1,
                       learning_rate=1.7e308), rng=RngStream(1))

    # finite weights too large for the forward pass: the query scores are
    # NaN, which argmax used to read as class 0
    @pytest.mark.parametrize("transductive", [True, False])
    def test_infer_overflow(self, transductive):
        state = pristine_state(small_backbone())
        for weight in weights(state.backbone):
            weight.values = weight.values * 1e150
        with pytest.raises(DivergenceError, match=r"^inference: a query score is not finite$"):
            infer(state, small_episode(), HyperParams(transductive=transductive))


class TestBlowUpWarning:
    """A run whose loss peaks above BLOWUP_RATIO times the first loss, but stays finite, logs one warning."""

    PEAKED = r"^{run}: loss peaked at (\S+) at {step}, (\S+) times the first loss$"

    def test_large_learning_rate_warns_once(self, caplog):
        with caplog.at_level("WARNING", logger="fewtune"):
            state = finetune(small_backbone(), *small_task(), HyperParams(finetune_epochs=20, learning_rate=1.0))
        [message] = caplog.messages
        peak, epoch, ratio = re.fullmatch(self.PEAKED.format(run="fine-tuning", step=r"epoch (\d+)"), message).groups()
        history = state.loss_history
        assert float(peak) == pytest.approx(max(history), rel=1e-2) and float(ratio) > fewshot.BLOWUP_RATIO
        assert history[int(epoch)] == max(history)

    def test_default_runs_never_warn(self, caplog):
        with caplog.at_level("WARNING", logger="fewtune"):
            for seed in range(3):
                finetune(small_backbone(), *small_task(seed=seed), HyperParams())
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
        for weight in weights(bk):
            weight.values[:] = 0.0
        accs = [
            infer(pristine_state(bk), small_episode(seed=200 + i), HyperParams())
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
            preds, _ = classify_cosine(q, compute_prototypes(dc.constant(p), np.arange(5)).values)
            hits.append(np.mean(preds == labels))
        assert abs(np.mean(hits) - 0.2) < 0.05

    def test_transductive_off_batch_independent(self):
        bk = small_backbone()
        ep = small_episode()
        hp = HyperParams(transductive=False)
        state = pristine_state(bk)
        support_emb = embed(state.backbone, ep.support_images, "eval")
        protos = compute_prototypes(dc.constant(support_emb), ep.support_labels, ep.n_way).values
        full_preds, _ = classify_cosine(embed(state.backbone, ep.query_images, "eval"), protos)
        singles = []
        for img in ep.query_images:
            p, _ = classify_cosine(embed(state.backbone, img[None], "eval"), protos)
            singles.append(p[0])
        assert np.array_equal(full_preds, np.asarray(singles))

    def test_self_query_separable_episode(self):
        # query set equal to the support set on a fitted episode
        bk = small_backbone()
        drawn = small_episode(seed=9)
        support = drawn.draws[:, : drawn.k_shot]
        ep = Episode(drawn.dataset, drawn.class_names, drawn.k_shot, np.concatenate([support, support], axis=1))
        assert np.array_equal(ep.query_images, ep.support_images)
        assert np.array_equal(ep.query_labels, ep.support_labels)
        state = pristine_state(bk)
        support_emb = embed(state.backbone, ep.support_images, "eval")
        protos = compute_prototypes(dc.constant(support_emb), ep.support_labels, ep.n_way).values
        preds, _ = classify_cosine(support_emb, protos)
        separable = bool(np.all(preds == ep.support_labels))
        acc = infer(state, ep, HyperParams(transductive=False))
        if separable:
            assert acc == 1.0


def created_tensors(monkeypatch):
    """Every DiffTensor created from here on, and the ids of those that `dc.param` made."""
    created, params = [], set()
    init, param = dc.DiffTensor.__init__, dc.param

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        created.append(self)

    monkeypatch.setattr(dc.DiffTensor, "__init__", recording_init)
    monkeypatch.setattr(dc, "param", lambda values: params.add(id(p := param(values))) or p)
    return created, params


class TestForwardOnly:
    """A forward pass that takes no gradient leaves nothing on the tape: `infer` and `finetune`'s
    head init create no tensor with a parent, and none that requires a gradient but a parameter."""

    @pytest.mark.parametrize("transductive", [False, True])
    @pytest.mark.parametrize("adapted", [False, True], ids=["pristine", "fine-tuned"])
    def test_infer(self, monkeypatch, adapted, transductive):
        ep, pseudo = small_task()
        bk = small_backbone()
        state = finetune(bk, ep, pseudo, HyperParams(finetune_epochs=3)) if adapted else pristine_state(bk)
        created, _ = created_tensors(monkeypatch)
        infer(state, ep, HyperParams(transductive=transductive))
        assert created and all(not t.requires_grad and not t._parents for t in created)

    def test_head_init(self, monkeypatch):
        # zero epochs: finetune builds the coordinate copy and the head, and takes no step
        created, params = created_tensors(monkeypatch)
        state = finetune(small_backbone(), *small_task(), HyperParams(finetune_epochs=0))
        assert id(state.head) in params
        assert all(not t._parents for t in created)
        assert all(id(t) in params for t in created if t.requires_grad)


class TestEpisodeIndependence:
    def test_order_invariant(self):
        bk = small_backbone()
        hp = HyperParams(finetune_epochs=3)

        def run(i):
            ep, pseudo = small_task(seed=300 + i)
            return infer(finetune(bk, ep, pseudo, hp), ep, hp)

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
        ep = sample_episode(ds, EpisodeShape(5, 5, 5), RngStream(0, (1,)))
        pseudo = build_pseudo_query(ep, RngStream(0, (2,)))
        for epochs in (0, 3):
            hp = HyperParams(finetune_epochs=epochs)
            for state in (finetune(bk, ep, pseudo, hp), pristine_state(bk)):
                for transductive in (True, False):
                    infer(state, ep, replace(hp, transductive=transductive))
        meta_train(bk, ds, params=MetaParams(episodes_per_epoch=5, epochs=1), rng=RngStream(3))
        assert bk.to_bytes() == before


def pinned_meta_train_inputs():
    """The backbone, dataset, shape and settings of TestMetaTrain.test_bits_pinned."""
    ds = generate_synthetic(source_domain(n_classes=6, images_per_class=12, image_size=8), RngStream(1))
    bk = Backbone.create(BackboneSpec(192, (32, 16), 8), RngStream(2))
    return bk, ds, EpisodeShape(3, 2, 3), MetaParams(episodes_per_epoch=20, epochs=3)


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
        # BLAS may round the matmuls differently. Its 72 images of 192
        # values train in the row space; the digest it held before that is
        # kept by the full-space reference loop (TestRowSpaceMetaTrain).
        bk, ds, shape, params = pinned_meta_train_inputs()
        means = []
        out = meta_train(bk, ds, shape, params, rng=RngStream(3), on_epoch=lambda epoch, loss: means.append(loss))
        # The closed-form backward of the one-node backbone moved these means by at most 2.3e-15.
        assert hashlib.sha256(out.to_bytes()).hexdigest() == (
            "5faf7408630803d6bdb1b91f1c3a54a542986b2b27ebc86aeb90e687bbe1c5ad"
        )
        assert means == [0.5221960650442078, 0.12708780764116986, 0.10606814506972925]

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

    def test_each_task_is_drawn_by_sample_episode(self, monkeypatch):
        # one draw function for evaluation and meta-training: a task is one sample_episode call
        calls, sample = [], episodes.sample_episode

        def counted(*args, **kwargs):
            calls.append(args)
            return sample(*args, **kwargs)

        for module in (episodes, fewshot):
            monkeypatch.setattr(module, "sample_episode", counted)
        params = MetaParams(episodes_per_epoch=4, epochs=3)
        meta_train(small_backbone(), small_dataset(), params=params, rng=RngStream(5))
        assert len(calls) == params.epochs * params.episodes_per_epoch


def traced_meta_train(monkeypatch, bk, ds, shape, params, rng):
    """`meta_train`'s backbone and per-epoch mean losses, and whether it trained a row-space coordinate copy."""
    copies, coordinate_copy = [], fewshot._coordinate_copy
    monkeypatch.setattr(fewshot, "_coordinate_copy", lambda *args: copies.append(args) or coordinate_copy(*args))
    means = []
    out = meta_train(bk, ds, shape, params, rng=rng, on_epoch=lambda epoch, loss: means.append(loss))
    return out, means, bool(copies)


# (classes, images per class, side) of a source-preset dataset, and the backbone widths
PAPER = (8, 40, 16), BackboneSpec()
AT_THE_RULE = (6, 16, 8), BackboneSpec(192, (32, 16), 8)  # 2n = D = 192
PAST_THE_RULE = (6, 17, 8), BackboneSpec(192, (32, 16), 8)  # 2n = 204 > D
SMALL = (6, 24, 4), SMALL_SPEC  # 2n = 288 > D = 48


def rule_case(case, seed):
    (classes, per_class, side), spec = case
    ds = generate_synthetic(source_domain(n_classes=classes, images_per_class=per_class, image_size=side),
                            RngStream(seed))
    return Backbone.create(spec, RngStream(seed, (1,))), ds


def assert_matches_full_space(out, means, ref, ref_means):
    np.testing.assert_allclose(means, ref_means, rtol=1e-9, atol=1e-12)
    for (name, a), (_, b) in zip(out._arrays(), ref._arrays()):
        # the pre-batch-norm and dense2 biases have a zero gradient and hold only roundoff
        np.testing.assert_allclose(a, b, rtol=1e-9, atol=1e-12, err_msg=name)


class TestRowSpaceMetaTrain:
    """Meta-training gathers each task's rows from the stacked dataset; when
    its n images of D values have 2n <= D, the first layer trains in their
    row space, which is the full-space loop up to rounding."""

    def test_reference_is_the_full_space_loop(self):
        # the digest and means TestMetaTrain.test_bits_pinned held before the row-space meta-training
        bk, ds, shape, params = pinned_meta_train_inputs()
        out, means = full_space_meta_train(bk, ds, shape, params, RngStream(3))
        assert hashlib.sha256(out.to_bytes()).hexdigest() == (
            "025602b494c8bc580cd8a7205d06a021f4eba3d7bdf0239cc73195d9f0aea56b"
        )
        assert means == [0.5221960650442077, 0.1270878076411695, 0.1060681450697388]

    @pytest.mark.parametrize("case", [PAPER, AT_THE_RULE], ids=["paper", "at-the-rule"])
    @pytest.mark.parametrize("seed", [3, 8])
    def test_matches_full_space(self, monkeypatch, case, seed):
        bk, ds = rule_case(case, seed)
        shape, params = EpisodeShape(5, 5, 10), MetaParams(episodes_per_epoch=40, epochs=2)
        out, means, row_space = traced_meta_train(monkeypatch, bk, ds, shape, params, RngStream(seed, (2,)))
        assert row_space
        assert_matches_full_space(out, means, *full_space_meta_train(bk, ds, shape, params, RngStream(seed, (2,))))

    # past the rule the first layer trains at full width; the one-node backbone's closed-form backward
    # then differs from the taped loop by rounding alone, about 1.6e-14 of an array's largest entry
    @pytest.mark.parametrize("case", [PAST_THE_RULE, SMALL], ids=["past-the-rule", "small"])
    def test_full_width_past_the_rule_matches_full_space(self, monkeypatch, case):
        bk, ds = rule_case(case, 4)
        params = MetaParams(episodes_per_epoch=15, epochs=2)
        out, means, row_space = traced_meta_train(monkeypatch, bk, ds, EpisodeShape(3, 3, 4), params, RngStream(5))
        assert not row_space
        assert_matches_full_space(out, means, *full_space_meta_train(bk, ds, EpisodeShape(3, 3, 4), params,
                                                                     RngStream(5)))

    def test_full_width_holds_no_copy_of_the_dataset(self):
        # tasks gather their rows from a view of the dataset's own buffer, so no block that code
        # in fewtune/ allocated and that is alive between epochs is as large as the dataset
        bk, ds = rule_case(PAST_THE_RULE, 4)
        here = tracemalloc.Filter(True, str(Path(fewshot.__file__).parent / "*"))
        largest = []

        def on_epoch(epoch, loss):
            largest.append(max(trace.size for trace in tracemalloc.take_snapshot().filter_traces([here]).traces))

        tracemalloc.start()
        try:
            meta_train(bk, ds, EpisodeShape(3, 3, 4), MetaParams(episodes_per_epoch=5, epochs=2), rng=RngStream(5),
                       on_epoch=on_epoch)
        finally:
            tracemalloc.stop()
        pools = ds.images.values()
        assert 2 * sum(map(len, pools)) > bk.spec.input_dim and len(largest) == 2
        assert max(largest) < sum(pool.nbytes for pool in pools)

    def test_first_layer_moves_in_the_row_space(self):
        bk, ds = rule_case(PAPER, 5)
        out = meta_train(bk, ds, params=MetaParams(episodes_per_epoch=30, epochs=1), rng=RngStream(6))
        rows = images_to_batch(ds.pixels, bk.spec.input_dim)
        delta = out.arrays["dense0.weight"].values - bk.arrays["dense0.weight"].values
        coeffs, *_ = np.linalg.lstsq(rows.T, delta, rcond=None)
        assert 2 * rows.shape[0] <= rows.shape[1]
        assert np.abs(delta).max() > 1e-3
        assert np.abs(delta - rows.T @ coeffs).max() <= 1e-12 * np.abs(delta).max()

    def test_zero_epochs_returns_the_input_arrays(self, monkeypatch):
        bk, ds, shape, _ = pinned_meta_train_inputs()
        out, means, row_space = traced_meta_train(monkeypatch, bk, ds, shape, MetaParams(epochs=0), RngStream(1))
        assert means == [] and not row_space
        for (name, a), (_, b) in zip(out._arrays(), bk._arrays()):
            assert a.shape == b.shape and np.array_equal(a, b), name

    def test_post_run_check_sees_the_returned_arrays(self, monkeypatch):
        # as for finetune: the divergence check after the last step reads the mapped-back backbone
        checked, train = [], fewshot._train

        def spy(params, steps, learning_rate, momentum, history, state):
            train(params, steps, learning_rate, momentum, history, state)
            checked.extend(state())

        monkeypatch.setattr(fewshot, "_train", spy)
        bk, ds, shape, params = pinned_meta_train_inputs()
        out, _, row_space = traced_meta_train(monkeypatch, bk, ds, shape, params, RngStream(3))
        assert row_space and [name for name, _ in checked] == [name for name, _ in out._arrays()]
        for (name, a), (_, b) in zip(checked, out._arrays()):
            assert a.shape == b.shape and np.array_equal(a, b), name


def parameter_names(bk):
    """The snapshot names of `bk.parameters()`, in that order."""
    return [name for name, t in bk.arrays.items() if t.requires_grad]


class TestTrainForward:
    """`Backbone.train_forward`, meta-training's backbone as one tape node: the taped train-mode
    forward's bits, and every parameter's gradient in closed form."""

    @staticmethod
    def weighted_sum(emb, seed):
        """A random weighting of every entry, so each embedding entry gets its own adjoint."""
        return dc.tensor_sum(dc.mul(emb, dc.constant(np.random.default_rng(seed).normal(size=emb.shape))))

    def test_gradient_check_every_parameter(self):
        rows = np.random.default_rng(2).uniform(size=(7, SMALL_SPEC.input_dim))
        # with no hidden layer there is no batch norm: the closed form is the last dense layer alone
        for hidden in (SMALL_SPEC.hidden, ()):
            bk = Backbone.create(replace(SMALL_SPEC, hidden=hidden), RngStream(1))
            for name, p in zip(parameter_names(bk), bk.parameters(), strict=True):
                assert gradient_check(lambda t: self.weighted_sum(bk.train_forward(rows), 3), p) < 1e-6, (hidden, name)

    @pytest.mark.parametrize("spec, rows", [(SMALL_SPEC, 7), (BackboneSpec(), 75)], ids=["tiny", "paper"])
    def test_same_bits_as_the_taped_forward(self, spec, rows):
        taped, node = Backbone.create(spec, RngStream(5)), Backbone.create(spec, RngStream(5))
        for seed in range(3):  # each pass reads the running statistics the last one wrote
            batch = np.random.default_rng(seed).uniform(size=(rows, spec.input_dim))
            assert np.array_equal(node.train_forward(batch).values, taped.forward(dc.constant(batch)).values)
        for (name, a), (_, b) in zip(node._arrays(), taped._arrays()):
            assert np.array_equal(a, b), name

    # both batches of a paper-shape task on one tape: the n = 320 images at full width, or on the
    # coordinates of their row space, as meta_train trains them
    @pytest.mark.parametrize("row_space", [False, True], ids=["full-width", "row-space"])
    def test_gradients_match_the_tape(self, row_space):
        bk, ds = rule_case(PAPER, 7)
        rows = images_to_batch(ds.pixels, bk.spec.input_dim)
        if row_space:
            basis, upper = np.linalg.qr(rows.T)
            (bk, _), rows = fewshot._coordinate_copy(bk, basis), np.ascontiguousarray(upper.T)
        ep = sample_episode(ds, EpisodeShape(5, 5, 15), RngStream(8))
        batches = rows[ep.support_rows], rows[ep.query_rows]
        grads = []
        for embed_rows in (lambda bk, x: bk.train_forward(x), lambda bk, x: bk.forward(dc.constant(x))):
            work = bk.clone()
            support, query = (embed_rows(work, x) for x in batches)
            loss = proto_xent(query, np.arange(5).repeat(15), compute_prototypes(support, np.arange(5).repeat(5)))
            # the weighted sum gives dense2.bias a live gradient, which proto_xent alone does not
            dc.backward(dc.add(loss, dc.add(self.weighted_sum(support, 9), self.weighted_sum(query, 10))))
            grads.append([p.grad for p in work.parameters()])
        largest = max(np.abs(taped).max() for taped in grads[1])
        for name, ours, taped in zip(parameter_names(bk), *grads):
            if name in ("dense0.bias", "dense1.bias"):  # they feed a train-mode batch norm: the tape holds roundoff
                assert not ours.any() and np.abs(taped).max() <= 1e-12 * largest, name
            else:
                assert np.abs(ours - taped).max() <= 1e-12 * np.abs(taped).max(), name

    def test_one_row_is_a_degenerate_batch(self):
        with pytest.raises(DegenerateBatchError, match="^batch statistics need at least 2 rows, got 1$"):
            small_backbone().train_forward(np.zeros((1, SMALL_SPEC.input_dim)))

    @pytest.mark.parametrize("case", [PAPER, PAST_THE_RULE], ids=["row-space", "full-width"])
    def test_meta_train_leaves_the_pre_norm_biases_at_zero(self, case):
        bk, ds = rule_case(case, 3)
        out = meta_train(bk, ds, EpisodeShape(3, 3, 4), MetaParams(episodes_per_epoch=10, epochs=1), rng=RngStream(4))
        arrays = dict(out._arrays())
        assert not np.array_equal(arrays["dense0.weight"], bk.arrays["dense0.weight"].values)
        assert not arrays["dense0.bias"].any() and not arrays["dense1.bias"].any()


def at_blas_threads(count, compute):
    """`compute()` with this process's OpenBLAS at `count` threads, and the count it had back after."""
    get_threads, set_threads = fewshot._openblas()
    before = get_threads()
    set_threads(count)
    try:
        return compute()
    finally:
        set_threads(before)


def paper_width_call(name):
    """A direct call of one compute function at the paper's widths that returns the bytes it gives back:
    a fine-tune of a few epochs, a row-space meta-training, or inference with an adapted backbone."""
    if name == "meta_train":
        bk, ds = rule_case(PAPER, 4)
        params = MetaParams(episodes_per_epoch=6, epochs=1)
        return lambda: meta_train(bk, ds, EpisodeShape(5, 5, 10), params, rng=RngStream(5)).to_bytes()
    bk, (ep, pseudo) = Backbone.create(BackboneSpec(), RngStream(4)), paper_shape_task(4)
    hp = HyperParams(finetune_epochs=3)
    if name == "finetune":
        return lambda: finetune_digest(finetune(bk, ep, pseudo, hp))
    adapted = at_blas_threads(1, lambda: finetune(bk, ep, pseudo, hp))
    return lambda: repr(infer(adapted, ep, HyperParams(transductive=True)))


class TestBlasThreads:
    """A direct call of finetune, infer or meta_train runs every BLAS call on one OpenBLAS thread, so a
    caller at 2 threads gets the bits a caller at 1 gets, and its count back, also when the call raises."""

    @pytest.mark.parametrize("name", ["finetune", "meta_train", "infer"])
    def test_same_bytes_as_at_one_thread(self, monkeypatch, blas_threads, name):
        compute = paper_width_call(name)
        seen, compute_prototypes = [], fewshot.compute_prototypes
        monkeypatch.setattr(fewshot, "compute_prototypes", lambda *args: seen.append(blas_threads()) or
                            compute_prototypes(*args))
        out = compute()
        assert blas_threads() == 2
        assert out == at_blas_threads(1, compute)
        assert seen and set(seen) == {1}

    def test_overlapping_calls_from_threads(self, blas_threads):
        # more threads than cores, switching often: each gets the bytes its call gives alone,
        # and the caller's count is back once all are done
        computes = [paper_width_call(name) for name in ("finetune", "meta_train", "finetune")]
        alone = [compute() for compute in computes]
        results = [[] for _ in computes]
        threads = [threading.Thread(target=lambda compute=compute, out=out: out.extend(compute() for _ in range(4)))
                   for compute, out in zip(computes, results)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [[out] * 4 for out in alone]
        assert blas_threads() == 2

    def test_caller_count_restored_after_a_divergence(self, blas_threads):
        with pytest.raises(DivergenceError):
            finetune(small_backbone(), *small_task(), HyperParams(finetune_epochs=1, learning_rate=1.7e308))
        assert blas_threads() == 2
