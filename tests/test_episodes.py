"""Episode sampling, pseudo-query sizing, PPM round-trip, synthetic data."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fewtune.episodes import (
    PQS_RULES,
    LabeledDataset,
    build_pseudo_query,
    load_dataset,
    pqs_rule,
    sample_episode,
    write_dataset,
)
from fewtune.errors import CapacityError, DataLoadError, ParameterError, QueryIsolationError
from fewtune.imageaug import Image
from fewtune.ppm import read_ppm, write_ppm
from fewtune.rng import RngStream
from fewtune.synthetic import DomainSpec, generate_synthetic, source_domain, target_domain


def toy_dataset(n_classes=6, per_class=30, size=8, seed=0):
    rng = np.random.default_rng(seed)
    names = tuple(f"c{i}" for i in range(n_classes))
    images = {
        name: tuple(Image(rng.uniform(size=(3, size, size))) for _ in range(per_class))
        for name in names
    }
    return LabeledDataset(domain="toy", images=images)


class TestSampleEpisode:
    def test_cardinalities(self):
        ep = sample_episode(toy_dataset(), 5, 5, 15, RngStream(0))
        assert len(ep.support_images) == 25
        assert len(ep._query_images) == 75
        assert len(set(ep.class_names)) == 5

    def test_partition_when_class_exhausted(self):
        ds = toy_dataset(n_classes=3, per_class=10)
        ep = sample_episode(ds, 2, 4, 6, RngStream(1))
        for label, name in enumerate(ep.class_names):
            used = [img for img, y in zip(ep.support_images, ep.support_labels) if y == label]
            used += [img for img, y in zip(ep.query_images, ep.query_labels) if y == label]
            assert sorted(map(id, used)) == sorted(map(id, ds.images[name]))

    def test_support_query_disjoint(self):
        ds = toy_dataset()
        ep = sample_episode(ds, 5, 5, 15, RngStream(2))
        for images, labels in ((ep.support_images, ep.support_labels), (ep.query_images, ep.query_labels)):
            for img, y in zip(images, labels):
                assert any(img is x for x in ds.images[ep.class_names[y]])
        assert not set(map(id, ep.support_images)) & set(map(id, ep.query_images))

    def test_same_stream_same_episode(self):
        ds = toy_dataset()
        a = sample_episode(ds, 5, 5, 15, RngStream(3, (9,)))
        b = sample_episode(ds, 5, 5, 15, RngStream(3, (9,)))
        assert list(map(id, a.support_images)) == list(map(id, b.support_images))
        assert list(map(id, a.query_images)) == list(map(id, b.query_images))

    def test_insufficient_classes(self):
        with pytest.raises(CapacityError, match="3 classes"):
            sample_episode(toy_dataset(n_classes=3), 5, 5, 15, RngStream(4))

    def test_insufficient_images(self):
        with pytest.raises(CapacityError, match="needs 40"):
            sample_episode(toy_dataset(per_class=30), 5, 20, 20, RngStream(5))

    def test_labels_relabelled_zero_based(self):
        ep = sample_episode(toy_dataset(), 4, 3, 2, RngStream(6))
        assert sorted(set(ep.support_labels.tolist())) == [0, 1, 2, 3]


class TestQueryGuard:
    def test_locked_read_raises(self):
        ep = sample_episode(toy_dataset(), 3, 2, 2, RngStream(7))
        with ep.query_guard():
            with pytest.raises(QueryIsolationError):
                _ = ep.query_images
        _ = ep.query_images  # unlocked again

    def test_read_counter(self):
        ep = sample_episode(toy_dataset(), 3, 2, 2, RngStream(8))
        assert ep.query_reads == 0
        _ = ep.query_images
        _ = ep.query_labels
        assert ep.query_reads == 2


class TestPqsPolicy:
    @pytest.mark.parametrize("k,expected", [(5, 100), (20, 200), (50, 200)])
    def test_published_sizes(self, k, expected):
        ds = toy_dataset(n_classes=6, per_class=k + 5)
        ep = sample_episode(ds, 5, k, 5, RngStream(9))
        build_pseudo_query(ep, RngStream(10))
        assert len(ep.pseudo_images) == expected
        per_class = np.bincount(ep.pseudo_labels, minlength=5)
        assert (per_class == expected // 5).all()

    def test_labels_trace_to_sources(self):
        ds = toy_dataset()
        ep = sample_episode(ds, 5, 5, 5, RngStream(11))
        build_pseudo_query(ep, RngStream(12))
        for label, src in zip(ep.pseudo_labels, ep.pseudo_sources):
            assert label == ep.support_labels[src]

    def test_fallback_rule(self):
        assert 7 not in PQS_RULES
        assert pqs_rule(5, 7) == (3, None)  # ceil(100 / 35)
        assert pqs_rule(5, 1) == (4, None)  # capped

    def test_deterministic(self):
        ds = toy_dataset()
        eps = []
        for _ in range(2):
            ep = sample_episode(ds, 5, 5, 5, RngStream(15))
            build_pseudo_query(ep, RngStream(16))
            eps.append(ep)
        for a, b in zip(eps[0].pseudo_images, eps[1].pseudo_images):
            assert np.array_equal(a.pixels, b.pixels)

    @pytest.mark.parametrize("k, digest", [
        (5, "49f530320c082bb0725e7fa849d8c64abebf7091c92efc196d8dcabc57040fb2"),
        (20, "2f835fd0f37ab2756f1f9c36bcc710ddccf712b9ce2f6a41d6aacc44c71ebd12"),
        (50, "a7d63ac68be90f0013a2c92258e53637bc835cabf457776b93f97b2538fbceca"),
    ], ids=["5-shot", "20-shot", "50-shot"])
    def test_bytes_pinned(self, k, digest):
        # every draw of sampling and of the pseudo-query recipe, at each
        # published shot count (50-shot takes the subsample path)
        ds = toy_dataset(n_classes=7, per_class=k + 4, size=4, seed=k)
        ep = build_pseudo_query(sample_episode(ds, 5, k, 3, RngStream(31, (k,))), RngStream(32, (k,)))
        h = hashlib.sha256("\0".join(ep.class_names).encode())
        for images, labels in (
            (ep.support_images, ep.support_labels),
            (ep.query_images, ep.query_labels),
            (ep.pseudo_images, ep.pseudo_labels),
        ):
            for img in images:
                h.update(np.ascontiguousarray(img.pixels, dtype="<f8").tobytes())
            h.update(np.asarray(labels, dtype="<i8").tobytes())
        h.update(np.asarray(ep.pseudo_sources, dtype="<i8").tobytes())
        assert h.hexdigest() == digest


class TestPpm:
    def test_round_trip_quantization(self, tmp_path):
        img = Image(np.random.default_rng(17).uniform(size=(3, 8, 8)))
        path = tmp_path / "img.ppm"
        write_ppm(img, path)
        back = read_ppm(path)
        assert np.abs(back.pixels - img.pixels).max() <= 0.5 / 255.0 + 1e-12

    def test_byte_values_exact_round_trip(self, tmp_path):
        raw = np.random.default_rng(18).integers(0, 256, size=(3, 4, 4))
        img = Image(raw / 255.0)
        write_ppm(img, tmp_path / "x.ppm")
        back = read_ppm(tmp_path / "x.ppm")
        np.testing.assert_array_equal(back.pixels, img.pixels)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        img = read_ppm(path)
        assert (img.height, img.width) == (1, 2)

    def test_rejects_non_p6(self, tmp_path):
        path = tmp_path / "bad.ppm"
        # an ASCII P3, and a P6 magic number run into the width
        for data in (b"P3\n1 1\n255\n0 0 0\n", b"P61 1\n255\n" + bytes(3)):
            path.write_bytes(data)
            with pytest.raises(DataLoadError):
                read_ppm(path)

    @given(st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
        lambda hw: arrays(np.float64, (3, *hw), elements=st.floats(0.0, 1.0))
    ))
    def test_round_trip_quantizes_to_bytes(self, tmp_path_factory, pixels):
        path = tmp_path_factory.mktemp("ppm") / "img.ppm"
        write_ppm(Image(pixels), path)
        back = read_ppm(path)
        np.testing.assert_array_equal(back.pixels, np.round(pixels * 255.0) / 255.0)
        first = path.read_bytes()
        write_ppm(back, path)
        assert path.read_bytes() == first

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(DataLoadError, match="raster"):
            read_ppm(path)


class TestLoadDataset:
    def test_round_trip_layout(self, tmp_path):
        ds = toy_dataset(n_classes=3, per_class=4)
        write_dataset(ds, tmp_path / "data")
        back = load_dataset(tmp_path / "data")
        assert back.classes == ds.classes
        assert len(back.images["c0"]) == 4

    def test_lexicographic_order(self, tmp_path):
        root = tmp_path / "data"
        for name in ("zebra", "apple", "mango"):
            (root / name).mkdir(parents=True)
            write_ppm(Image(np.zeros((3, 2, 2))), root / name / "i.ppm")
        assert load_dataset(root).classes == ("apple", "mango", "zebra")

    def test_empty_class_dir(self, tmp_path):
        root = tmp_path / "data"
        (root / "empty").mkdir(parents=True)
        with pytest.raises(DataLoadError, match="no .ppm"):
            load_dataset(root)

    def test_non_square_rejected_by_default(self, tmp_path):
        root = tmp_path / "data" / "c"
        root.mkdir(parents=True)
        write_ppm(Image(np.zeros((3, 2, 4))), root / "i.ppm")
        with pytest.raises(DataLoadError, match="non-square"):
            load_dataset(tmp_path / "data")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataLoadError):
            load_dataset(tmp_path / "nope")

    def test_mixed_sizes_rejected(self, tmp_path):
        root = tmp_path / "data" / "c"
        root.mkdir(parents=True)
        write_ppm(Image(np.zeros((3, 2, 2))), root / "a.ppm")
        write_ppm(Image(np.zeros((3, 4, 4))), root / "b.ppm")
        with pytest.raises(DataLoadError, match="differs"):
            load_dataset(tmp_path / "data")


class TestSynthetic:
    def test_deterministic(self):
        a = generate_synthetic(source_domain(), RngStream(19))
        b = generate_synthetic(source_domain(), RngStream(19))
        assert a.fingerprint() == b.fingerprint()

    def test_zero_shift_same_law(self):
        spec = source_domain()
        a = generate_synthetic(spec, RngStream(20))
        b = generate_synthetic(spec, RngStream(20))
        for name in a.classes:
            for x, y in zip(a.images[name], b.images[name]):
                assert np.array_equal(x.pixels, y.pixels)

    def test_distinct_domains_distinct_data(self):
        a = generate_synthetic(source_domain(), RngStream(21))
        b = generate_synthetic(target_domain(), RngStream(21))
        assert a.fingerprint() != b.fingerprint()

    def test_held_bytes_capped(self):
        # 2 classes x 1 image x 3 channels plus two meshgrids: 8 x 4096^2 float64 is exactly 2**30 bytes
        DomainSpec(n_classes=2, images_per_class=1, image_size=4096)
        with pytest.raises(ParameterError, match=r"^image_size 4097 with 2 classes x 1 images holds 1074266176 bytes"):
            DomainSpec(n_classes=2, images_per_class=1, image_size=4097)

    def test_requires_two_classes(self):
        with pytest.raises(ParameterError, match="^n_classes must be >= 2, got 1$"):
            DomainSpec(n_classes=1)

    @pytest.mark.parametrize("name, value", [
        ("images_per_class", 0), ("image_size", 1), ("background", 1.5), ("noise_sigma", -0.1),
    ])
    def test_bad_field_named_first(self, name, value):
        # the CLI swaps the leading field name for the flag that sets it
        with pytest.raises(ParameterError, match=f"^{name} must be .*, got {value}$"):
            DomainSpec(**{name: value})

    def test_pixels_in_range_and_square(self):
        ds = generate_synthetic(target_domain(), RngStream(22))
        img = ds.images[ds.classes[0]][0]
        assert img.is_square and img.pixels.min() >= 0.0 and img.pixels.max() <= 1.0

    def test_domain_shift_degrades_linear_classifier(self):
        # least-squares one-vs-rest probe trained on domain A pixels
        spec_a = source_domain(images_per_class=30)
        spec_b = target_domain(
            pattern_offset=0, orientation_spread=1.0, images_per_class=30
        )  # same classes, shifted appearance
        ds_a = generate_synthetic(spec_a, RngStream(23))
        ds_b = generate_synthetic(spec_b, RngStream(24))

        def matrix(ds, lo, hi):
            xs, ys = [], []
            for label, name in enumerate(ds.classes):
                for img in ds.images[name][lo:hi]:
                    xs.append(img.pixels.reshape(-1))
                    ys.append(label)
            return np.stack(xs), np.asarray(ys)

        x_train, y_train = matrix(ds_a, 0, 20)
        x_test_a, y_test_a = matrix(ds_a, 20, 30)
        x_test_b, y_test_b = matrix(ds_b, 20, 30)
        hot = np.eye(len(ds_a.classes))[y_train]
        w, *_ = np.linalg.lstsq(x_train, hot, rcond=None)
        acc_a = np.mean((x_test_a @ w).argmax(axis=1) == y_test_a)
        acc_b = np.mean((x_test_b @ w).argmax(axis=1) == y_test_b)
        assert acc_b < acc_a - 0.1

    def test_dataset_fingerprint_sensitive_to_pixels(self):
        ds = generate_synthetic(source_domain(n_classes=2, images_per_class=2), RngStream(25))
        blob = hashlib.sha256()
        blob.update(ds.fingerprint().encode())
        other = generate_synthetic(source_domain(n_classes=2, images_per_class=2), RngStream(26))
        assert ds.fingerprint() != other.fingerprint()
