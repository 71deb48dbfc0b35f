"""Episode sampling, pseudo-query sizing, PPM round-trip, synthetic data."""

import hashlib
import os
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fewtune import episodes
from fewtune.episodes import (
    PQS_RULES,
    EpisodeShape,
    LabeledDataset,
    build_pseudo_query,
    load_dataset,
    pqs_rule,
    sample_episode,
    write_dataset,
)
from fewtune.errors import CapacityError, DataLoadError, ParameterError, QueryIsolationError, ShapeError
from fewtune.ppm import MAX_HEADER_BYTES, ppm_shape, read_ppm, write_ppm
from fewtune.rng import RngStream
from fewtune.synthetic import DomainSpec, generate_synthetic, source_domain, target_domain


def toy_dataset(n_classes=6, per_class=30, size=8, seed=0):
    pixels = np.random.default_rng(seed).uniform(size=(n_classes * per_class, 3, size, size))
    return LabeledDataset("toy", pixels, {f"c{i}": per_class for i in range(n_classes)})


class TestSampleEpisode:
    def test_cardinalities(self):
        ep = sample_episode(toy_dataset(), EpisodeShape(5, 5, 15), RngStream(0))
        assert len(ep.support_images) == 25
        assert len(ep.query_images) == 75
        assert len(set(ep.class_names)) == 5

    def test_partition_when_class_exhausted(self):
        ds = toy_dataset(n_classes=3, per_class=10)
        ep = sample_episode(ds, EpisodeShape(2, 4, 6), RngStream(1))
        for label, name in enumerate(ep.class_names):
            used = [img.tobytes() for img, y in zip(ep.support_images, ep.support_labels) if y == label]
            used += [img.tobytes() for img, y in zip(ep.query_images, ep.query_labels) if y == label]
            assert sorted(used) == sorted(img.tobytes() for img in ds.images[name])

    def test_support_query_disjoint(self):
        ds = toy_dataset()
        ep = sample_episode(ds, EpisodeShape(5, 5, 15), RngStream(2))
        for images, labels in ((ep.support_images, ep.support_labels), (ep.query_images, ep.query_labels)):
            for img, y in zip(images, labels):
                assert any(np.array_equal(img, x) for x in ds.images[ep.class_names[y]])
        assert not {img.tobytes() for img in ep.support_images} & {img.tobytes() for img in ep.query_images}

    def test_same_stream_same_episode(self):
        ds = toy_dataset()
        a = sample_episode(ds, EpisodeShape(5, 5, 15), RngStream(3, (9,)))
        b = sample_episode(ds, EpisodeShape(5, 5, 15), RngStream(3, (9,)))
        assert np.array_equal(a.support_images, b.support_images)
        assert np.array_equal(a.query_images, b.query_images)

    def test_insufficient_classes(self):
        with pytest.raises(CapacityError, match="3 classes"):
            sample_episode(toy_dataset(n_classes=3), EpisodeShape(5, 5, 15), RngStream(4))

    def test_insufficient_images(self):
        with pytest.raises(CapacityError, match="needs 40") as small:
            sample_episode(toy_dataset(per_class=30), EpisodeShape(5, 20, 20), RngStream(5))
        # a shape whose image arrays could not be allocated names the same class
        with pytest.raises(CapacityError, match=r"^class 'c\d' has 30 images, episode needs 1000000015$") as huge:
            sample_episode(toy_dataset(per_class=30), EpisodeShape(5, 10**9, 15), RngStream(5))
        assert str(huge.value).split(" has ")[0] == str(small.value).split(" has ")[0]

    def test_labels_relabelled_zero_based(self):
        ep = sample_episode(toy_dataset(), EpisodeShape(4, 3, 2), RngStream(6))
        assert sorted(set(ep.support_labels.tolist())) == [0, 1, 2, 3]

    @pytest.mark.parametrize("stream", [RngStream(0), RngStream(7, (2,)), RngStream(31, (1, 4))])
    def test_episode_is_the_gather_of_its_draws(self, stream):
        # the episode's images are the dataset rows it drew, each drawn class's rows
        # distinct and inside that class, and the same stream draws the same rows
        ds, shape = toy_dataset(per_class=12), EpisodeShape(4, 3, 5)
        ep = sample_episode(ds, shape, stream)
        rows = ep.draws
        assert rows.shape == (4, 8) and np.array_equal(rows, sample_episode(ds, shape, stream).draws)
        for name, draw in zip(ep.class_names, rows):
            i = ds.classes.index(name)
            assert len(set(draw)) == 8 and ds.starts[i] <= draw.min() and draw.max() < ds.starts[i + 1]
        for images, labels, at, cols in ((ep.support_images, ep.support_labels, ep.support_rows, slice(0, 3)),
                                         (ep.query_images, ep.query_labels, ep.query_rows, slice(3, 8))):
            assert np.array_equal(at, rows[:, cols].ravel())
            assert np.array_equal(images, ds.pixels[rows[:, cols].ravel()])
            assert np.array_equal(labels, np.repeat(np.arange(4), cols.stop - cols.start))

    def test_episode_copies_no_pixels(self):
        # an episode stores its draws and no image: each image set is gathered from the
        # dataset's buffer when it is read
        ds, shape = toy_dataset(per_class=12), EpisodeShape(4, 3, 5)
        ep = sample_episode(ds, shape, RngStream(40))
        assert ep.dataset is ds
        stored = [value for value in vars(ep).values() if isinstance(value, np.ndarray)]
        assert len(stored) == 1 and stored[0] is ep.draws and ep.draws.shape == (4, 8)
        assert np.issubdtype(ep.draws.dtype, np.integer)
        assert np.array_equal(ep.support_images, ds.pixels[ep.draws[:, :3].ravel()])
        assert np.array_equal(ep.query_images, ds.pixels[ep.draws[:, 3:].ravel()])
        reads = ep.query_reads
        with ep.query_guard():
            for accessor in ("query_images", "query_labels", "query_rows"):
                with pytest.raises(QueryIsolationError):
                    getattr(ep, accessor)
        assert ep.query_reads == reads


class TestQueryGuard:
    def test_locked_read_raises(self):
        ep = sample_episode(toy_dataset(), EpisodeShape(3, 2, 2), RngStream(7))
        with ep.query_guard():
            with pytest.raises(QueryIsolationError):
                _ = ep.query_images
        _ = ep.query_images  # unlocked again

    def test_read_counter(self):
        ep = sample_episode(toy_dataset(), EpisodeShape(3, 2, 2), RngStream(8))
        assert ep.query_reads == 0
        _ = ep.query_images
        _ = ep.query_labels
        assert ep.query_reads == 2


class TestPqsPolicy:
    @pytest.mark.parametrize("k,expected", [(5, 100), (20, 200), (50, 200)])
    def test_published_sizes(self, k, expected):
        ds = toy_dataset(n_classes=6, per_class=k + 5)
        ep = sample_episode(ds, EpisodeShape(5, k, 5), RngStream(9))
        images, sources = build_pseudo_query(ep, RngStream(10))
        assert len(images) == len(sources) == expected
        per_class = np.bincount(ep.support_labels[sources], minlength=5)
        assert (per_class == expected // 5).all()

    def test_labels_trace_to_sources(self):
        ds = toy_dataset()
        ep = sample_episode(ds, EpisodeShape(5, 5, 5), RngStream(11))
        _, sources = build_pseudo_query(ep, RngStream(12))
        # 4 pseudo images per support image, in support order, so each takes its source's label
        assert np.array_equal(sources, np.repeat(np.arange(25), 4))
        assert np.array_equal(ep.support_labels[sources], np.repeat(np.arange(5), 20))

    @pytest.mark.parametrize("k", [5, 50], ids=["all-supports", "subsample"])
    def test_returns_the_set_and_leaves_the_episode(self, k):
        ds = toy_dataset(n_classes=6, per_class=k + 2)
        ep = sample_episode(ds, EpisodeShape(5, k, 2), RngStream(13))
        made = dict(vars(ep))
        draws = ep.draws.copy()
        images, sources = build_pseudo_query(ep, RngStream(14))
        assert type(images) is np.ndarray and images.shape == (200 if k == 50 else 100, *ds.pixels.shape[1:])
        assert type(sources) is np.ndarray and sources.dtype == np.int64 and sources.shape == images.shape[:1]
        assert vars(ep).keys() == made.keys()
        assert all(vars(ep)[name] is value for name, value in made.items())
        assert np.array_equal(ep.draws, draws)

    def test_fallback_rule(self):
        assert 7 not in PQS_RULES
        assert pqs_rule(5, 7) == (3, None)  # ceil(100 / 35)
        assert pqs_rule(5, 1) == (4, None)  # capped

    def test_deterministic(self):
        ds = toy_dataset()
        eps = []
        for _ in range(2):
            ep = sample_episode(ds, EpisodeShape(5, 5, 5), RngStream(15))
            eps.append(build_pseudo_query(ep, RngStream(16)))
        for a, b in zip(*eps):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("k, digest", [
        (5, "49f530320c082bb0725e7fa849d8c64abebf7091c92efc196d8dcabc57040fb2"),
        (20, "2f835fd0f37ab2756f1f9c36bcc710ddccf712b9ce2f6a41d6aacc44c71ebd12"),
        (50, "a7d63ac68be90f0013a2c92258e53637bc835cabf457776b93f97b2538fbceca"),
    ], ids=["5-shot", "20-shot", "50-shot"])
    def test_bytes_pinned(self, k, digest):
        # every draw of sampling and of the pseudo-query recipe, at each
        # published shot count (50-shot takes the subsample path)
        ds = toy_dataset(n_classes=7, per_class=k + 4, size=4, seed=k)
        ep = sample_episode(ds, EpisodeShape(5, k, 3), RngStream(31, (k,)))
        pseudo_images, pseudo_sources = build_pseudo_query(ep, RngStream(32, (k,)))
        h = hashlib.sha256("\0".join(ep.class_names).encode())
        for images, labels in (
            (ep.support_images, ep.support_labels),
            (ep.query_images, ep.query_labels),
            (pseudo_images, ep.support_labels[pseudo_sources]),
        ):
            for img in images:
                h.update(np.ascontiguousarray(img, dtype="<f8").tobytes())
            h.update(np.asarray(labels, dtype="<i8").tobytes())
        h.update(np.asarray(pseudo_sources, dtype="<i8").tobytes())
        assert h.hexdigest() == digest


WHITESPACE = b" \t\n\r\x0b\x0c"  # the bytes bytes.isspace() accepts
SPACES = st.lists(st.sampled_from(WHITESPACE), max_size=3).map(bytes)
COMMENTS = st.binary(max_size=6).map(lambda text: b"#" + text.replace(b"\n", b"") + b"\n")


@st.composite
def gaps(draw):
    """What may stand before a header token: whitespace, then '#' comments, each followed by more."""
    comments = draw(st.lists(COMMENTS, max_size=2))
    return draw(SPACES.filter(len)) + b"".join(comment + draw(SPACES) for comment in comments)


@st.composite
def int_tokens(draw, value):
    """`value` spelled as int() also reads it: leading zeros, a '_' between two digits, a '+'."""
    digits = "0" * draw(st.integers(0, 2)) + str(value)
    cut = draw(st.integers(0, len(digits) - 1))
    if cut:
        digits = digits[:cut] + "_" + digits[cut:]
    return (draw(st.sampled_from(["", "+"])) + digits).encode()


class TestPpm:
    def test_round_trip_quantization(self, tmp_path):
        img = np.random.default_rng(17).uniform(size=(3, 8, 8))
        path = tmp_path / "img.ppm"
        write_ppm(img, path)
        back = read_ppm(path)
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-12

    def test_byte_values_exact_round_trip(self, tmp_path):
        raw = np.random.default_rng(18).integers(0, 256, size=(3, 4, 4))
        img = raw / 255.0
        write_ppm(img, tmp_path / "x.ppm")
        back = read_ppm(tmp_path / "x.ppm")
        np.testing.assert_array_equal(back, img)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6\n# a comment\n2 1\n255\n" + bytes(6))
        img = read_ppm(path)
        assert img.shape[1:] == (1, 2)

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
        write_ppm(pixels, path)
        back = read_ppm(path)
        np.testing.assert_array_equal(back, np.round(pixels * 255.0) / 255.0)
        first = path.read_bytes()
        write_ppm(back, path)
        assert path.read_bytes() == first

    def test_rejects_truncated(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n4 4\n255\n" + bytes(10))
        with pytest.raises(DataLoadError, match="raster"):
            read_ppm(path)

    @given(st.integers(1, 4), st.integers(1, 4), st.data())
    def test_header_grammar(self, tmp_path_factory, height, width, data):
        header = b"P6" + b"".join(data.draw(gaps()) + data.draw(int_tokens(value)) for value in (width, height, 255))
        raster = data.draw(st.binary(min_size=3 * height * width, max_size=3 * height * width))
        path = tmp_path_factory.mktemp("ppm") / "img.ppm"
        path.write_bytes(header + bytes([data.draw(st.sampled_from(WHITESPACE))]) + raster)
        assert ppm_shape(path) == (3, height, width)
        pixels = np.frombuffer(raster, np.uint8).reshape(height, width, 3).transpose(2, 0, 1)
        np.testing.assert_array_equal(read_ppm(path), pixels / 255.0)

    @pytest.mark.parametrize("spare", [0, 1], ids=["at-the-bound", "one-byte-past"])
    @pytest.mark.parametrize("end", [b"\n", b""], ids=["whitespace", "maxval-at-the-bound"])
    def test_header_bound(self, tmp_path, spare, end):
        # a comment fills the header up to MAX_HEADER_BYTES with the whitespace byte that ends it, or
        # with maxval's last digit, which the raster's first byte would follow; then one byte more
        fixed = b"P6\n#\n1 1\n255" + end
        comment = b"x" * (MAX_HEADER_BYTES - len(fixed) + spare)
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n#" + comment + fixed[4:] + b"\x07\x08\x09" + bytes(MAX_HEADER_BYTES))
        if spare or not end:
            for read in (ppm_shape, read_ppm):
                with pytest.raises(DataLoadError, match=f"^{re.escape(str(path))}: PPM header is longer than "
                                                        f"{MAX_HEADER_BYTES} bytes$"):
                    read(path)
        else:
            assert ppm_shape(path) == (3, 1, 1)
            np.testing.assert_array_equal(read_ppm(path).ravel(), np.array([7, 8, 9]) / 255.0)

    @pytest.mark.parametrize("data, message", [
        (b"P6\n2#c\n1\n255\n" + bytes(6), "malformed PPM header"),  # a '#' glued to a token is part of it
        (b"P6\n1 1\n# the data ends in a comment", "malformed PPM header"),
        (b"P61 1 255\n" + bytes(3), "not a binary P6 PPM"),
        (b"P6\n1 1\n65535\n" + bytes(6), "only maxval 255 supported, got 65535"),
        (b"P6\n0 1\n255\n", "bad dimensions 0x1"),
    ], ids=["glued-comment", "comment-at-end", "magic-run-into-width", "maxval-65535", "zero-width"])
    def test_header_refusals(self, tmp_path, data, message):
        path = tmp_path / "bad.ppm"
        path.write_bytes(data)
        for read in (read_ppm, ppm_shape):
            with pytest.raises(DataLoadError, match=f"^{re.escape(str(path))}: {message}$"):
                read(path)


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
            write_ppm(np.zeros((3, 2, 2)), root / name / "i.ppm")
        assert load_dataset(root).classes == ("apple", "mango", "zebra")

    def test_empty_class_dir(self, tmp_path):
        root = tmp_path / "data"
        (root / "empty").mkdir(parents=True)
        with pytest.raises(DataLoadError, match="no .ppm"):
            load_dataset(root)

    def test_non_square_rejected_by_default(self, tmp_path):
        root = tmp_path / "data" / "c"
        root.mkdir(parents=True)
        write_ppm(np.zeros((3, 2, 4)), root / "i.ppm")
        with pytest.raises(DataLoadError, match="non-square"):
            load_dataset(tmp_path / "data")

    def test_missing_directory(self, tmp_path):
        with pytest.raises(DataLoadError):
            load_dataset(tmp_path / "nope")

    def test_mixed_sizes_rejected(self, tmp_path):
        root = tmp_path / "data" / "c"
        root.mkdir(parents=True)
        write_ppm(np.zeros((3, 2, 2)), root / "a.ppm")
        write_ppm(np.zeros((3, 4, 4)), root / "b.ppm")
        with pytest.raises(DataLoadError, match="differs"):
            load_dataset(tmp_path / "data")


class TestLabeledDataset:
    """The images are one (n, C, H, W) buffer, checked once, class by class; no image is checked again."""

    @pytest.mark.parametrize("pixels, counts, error, fragment", [
        (np.zeros((3, 2, 2)), {"a": 3}, ShapeError,
         r"^expected pixels of shape \(images, channels, height, width\), got \(3, 2, 2\)$"),
        (np.zeros((1, 3, 2, 2)), {"a": 1, "b": 0}, ShapeError,
         r"^class 'b': expected non-empty \(images, channels, height, width\), got \(0, 3, 2, 2\)$"),
        (np.zeros((1, 3, 2, 2)), {"a": 2, "b": -1}, ShapeError,
         r"^class 'b': expected non-empty \(images, channels, height, width\), got \(-1, 3, 2, 2\)$"),
        (np.zeros((3, 3, 2, 2)), {"a": 1, "b": 1}, ShapeError, r"^the classes hold 2 images, the pixels 3$"),
        (np.full((1, 3, 2, 2), 1.5), {"a": 1}, ParameterError, r"^class 'a': pixel values must lie in \[0, 1\]$"),
        (np.array([[[[0.5]]], [[[np.nan]]]]), {"a": 1, "b": 1}, ParameterError,
         r"^class 'b': pixel values must lie in \[0, 1\]$"),
    ], ids=["three-axes", "empty-class", "negative-count", "count-mismatch", "above-one", "nan"])
    def test_rejects(self, pixels, counts, error, fragment):
        with pytest.raises(error, match=fragment):
            LabeledDataset("toy", pixels, counts)

    def test_classes_are_read_only_views(self):
        given = np.zeros((5, 3, 2, 2))
        ds = LabeledDataset("toy", given, {"a": 2, "b": 3})
        assert np.shares_memory(ds.pixels, given) and given.flags.writeable
        assert [len(pool) for pool in ds.images.values()] == [2, 3]
        for pool in (ds.pixels, *ds.images.values()):
            with pytest.raises(ValueError, match="read-only"):
                pool[0, 0, 0, 0] = 1.0

    def test_loaded_and_generated_classes_are_read_only(self, tmp_path):
        generated = generate_synthetic(source_domain(n_classes=2, images_per_class=2, image_size=4), RngStream(1))
        loaded = load_dataset(write_dataset(generated, tmp_path / "data"))
        for ds in (generated, loaded):
            for pool in ds.images.values():
                with pytest.raises(ValueError, match="read-only"):
                    pool[0] = 0.5

    def test_every_class_is_a_c_ordered_view_of_one_buffer(self, tmp_path):
        generated = generate_synthetic(source_domain(n_classes=3, images_per_class=4, image_size=4), RngStream(2))
        loaded = load_dataset(write_dataset(generated, tmp_path / "data"))
        built = LabeledDataset("toy", np.asfortranarray(np.zeros((5, 3, 2, 2))), {"a": 2, "b": 3})
        for ds in (generated, loaded, built):
            assert ds.pixels.flags.c_contiguous and not ds.pixels.flags.writeable
            rows = 0
            for pool in ds.images.values():
                assert pool.base is ds.pixels.base and pool.flags.c_contiguous and not pool.flags.writeable
                assert np.shares_memory(pool, ds.pixels[rows : rows + len(pool)])
                rows += len(pool)
            assert rows == len(ds.pixels)

    def test_pickle_ships_the_buffer_once(self):
        ds = generate_synthetic(source_domain(n_classes=4, images_per_class=6, image_size=8), RngStream(3))
        blob = pickle.dumps(ds)
        assert len(blob) <= ds.pixels.nbytes + 1024
        back = pickle.loads(blob)
        assert back.fingerprint() == ds.fingerprint() and back.counts == ds.counts and back.domain == ds.domain
        assert not back.pixels.flags.writeable
        assert all(pool.base is back.pixels.base for pool in back.images.values())

    def test_too_big_a_directory_is_refused_before_any_read(self, tmp_path, monkeypatch):
        # sparse files: 8 x 2 x 80 MiB is above the 1 GiB cap, and nothing is written
        root = tmp_path / "data"
        for name in ("a", "b"):
            (root / name).mkdir(parents=True)
            with open(root / name / "i.ppm", "wb") as f:
                os.truncate(f.fileno(), 80 << 20)
        monkeypatch.setattr(episodes, "read_ppm", lambda path: pytest.fail(f"read {path}"))
        with pytest.raises(DataLoadError, match=f"^dataset directory {root} would hold about 1342177280 bytes"):
            load_dataset(root)


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
                assert np.array_equal(x, y)

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
        assert img.shape[1] == img.shape[2] and img.min() >= 0.0 and img.max() <= 1.0

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
                    xs.append(img.reshape(-1))
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

    @pytest.mark.parametrize("spec, seed, digest", [
        (source_domain(n_classes=2, images_per_class=2), 25,
         "7099118f12b0c5a1b1f874061861d8d7b35fbf9c53fd108f8b2e72b3f5585b64"),
        (target_domain(n_classes=3, images_per_class=4, image_size=4), 7,
         "771aefffcdcf8b46feee5d174c13f1ac30ec22e682ea9d86e98e7dd3a343b1a4"),
    ], ids=["source", "target"])
    def test_fingerprint_pinned(self, spec, seed, digest):
        # the digests of hashing the images one by one, from before each class became one array
        assert generate_synthetic(spec, RngStream(seed)).fingerprint() == digest

    def test_dataset_fingerprint_sensitive_to_pixels(self):
        ds = generate_synthetic(source_domain(n_classes=2, images_per_class=2), RngStream(25))
        blob = hashlib.sha256()
        blob.update(ds.fingerprint().encode())
        other = generate_synthetic(source_domain(n_classes=2, images_per_class=2), RngStream(26))
        assert ds.fingerprint() != other.fingerprint()
