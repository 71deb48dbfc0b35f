"""Pixel ops: identities, range preservation, pipeline statistics."""

import hashlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fewtune import imageaug
from fewtune.errors import ParameterError, ShapeError
from fewtune.imageaug import (
    _draw_erase_box,
    augment,
    channel_shuffle,
    erase_block,
    flip,
    gamma_correct,
    rotate,
)
from fewtune.rng import RngStream

from helpers import PIPELINE, applied_ops


def random_image(seed, c=3, h=8, w=8):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(c, h, w))


# square images (quarter turns need them), any channel count, pixels in [0, 1]
images = st.tuples(st.integers(1, 4), st.integers(1, 9)).flatmap(
    lambda cs: arrays(np.float64, (cs[0], cs[1], cs[1]), elements=st.floats(0.0, 1.0))
)
streams = st.builds(RngStream, st.integers(0, 2**32), st.lists(st.integers(0, 2**16), max_size=3).map(tuple))


class TestGammaCorrect:
    def test_white_is_fixed_point(self):
        img = np.ones((3, 2, 2))
        np.testing.assert_array_equal(gamma_correct(img, 1.37), img)

    def test_gamma_one_is_identity(self):
        img = random_image(1)
        np.testing.assert_array_equal(gamma_correct(img, 1.0), img)

    def test_closed_form(self):
        img = np.full((1, 1, 1), 0.25)
        np.testing.assert_allclose(gamma_correct(img, 1.5), 0.125, atol=1e-15)

    def test_monotone_per_pixel(self):
        lo, hi = random_image(2), random_image(3)
        a = np.minimum(lo, hi)
        b = np.maximum(lo, hi)
        out_a = gamma_correct(a, 1.31)
        out_b = gamma_correct(b, 1.31)
        assert (out_a <= out_b).all()

    def test_nonpositive_gamma_rejected(self):
        with pytest.raises(ParameterError):
            gamma_correct(random_image(4), 0.0)


class TestChannelShuffle:
    def test_identity_permutation(self):
        img = random_image(5)
        np.testing.assert_array_equal(channel_shuffle(img, (0, 1, 2)), img)

    def test_perm_then_inverse(self):
        img = random_image(6)
        perm = (2, 0, 1)
        inverse = tuple(int(i) for i in np.argsort(perm))
        round_trip = channel_shuffle(channel_shuffle(img, perm), inverse)
        np.testing.assert_array_equal(round_trip, img)

    def test_rgb_to_bgr_on_pure_red(self):
        px = np.zeros((3, 2, 2))
        px[0] = 1.0
        out = channel_shuffle(px, (2, 1, 0))
        assert out[2].min() == 1.0 and out[0].max() == 0.0

    def test_invalid_perm(self):
        with pytest.raises(ParameterError):
            channel_shuffle(random_image(7), (0, 0, 1))


class TestFlip:
    def test_involution(self):
        img = random_image(8)
        for axis in ("horizontal", "vertical"):
            np.testing.assert_array_equal(flip(flip(img, axis), axis), img)

    def test_symmetric_image_unchanged(self):
        half = np.random.default_rng(9).uniform(size=(3, 4, 2))
        px = np.concatenate([half, half[:, :, ::-1]], axis=2)
        img = px
        np.testing.assert_array_equal(flip(img, "horizontal"), img)

    def test_one_by_two(self):
        img = np.array([[[0.25, 0.75]]])
        np.testing.assert_array_equal(flip(img, "horizontal"), [[[0.75, 0.25]]])

    def test_bad_axis(self):
        with pytest.raises(ParameterError):
            flip(random_image(10), "diagonal")


class TestRotate:
    def test_four_quarter_turns(self):
        img = random_image(11)
        out = img
        for _ in range(4):
            out = rotate(out, 90)
        np.testing.assert_array_equal(out, img)

    def test_half_turn_twice(self):
        img = random_image(12)
        np.testing.assert_array_equal(rotate(rotate(img, 180), 180), img)

    def test_quarter_turn_remap(self):
        img = np.array([[[0.1, 0.2], [0.3, 0.4]]])  # [[a,b],[c,d]]
        np.testing.assert_allclose(rotate(img, 90), [[[0.2, 0.4], [0.1, 0.3]]])

    def test_non_square_rejected_for_quarter_turns(self):
        img = random_image(13, h=4, w=6)
        with pytest.raises(ShapeError):
            rotate(img, 90)
        rotate(img, 180)  # half turn is fine

    def test_bad_degrees(self):
        with pytest.raises(ParameterError):
            rotate(random_image(14), 45)


class TestRandomErase:
    def test_constant_image_unchanged(self):
        img = np.full((3, 8, 8), 0.4)
        box = _draw_erase_box(RngStream(0).generator(), *img.shape[1:])
        np.testing.assert_allclose(erase_block(img, *box), img, atol=1e-15)

    def test_block_becomes_constant(self):
        img = random_image(15)
        out = erase_block(img, 2, 3, 4, 3)
        block = out[:, 2:6, 3:6]
        assert block.std(axis=(1, 2)).max() < 1e-12

    def test_block_mean_preserved(self):
        img = random_image(16)
        top, left, bh, bw = 1, 2, 5, 4
        out = erase_block(img, top, left, bh, bw)
        before = img[:, top : top + bh, left : left + bw].mean(axis=(1, 2))
        after = out[:, top : top + bh, left : left + bw].mean(axis=(1, 2))
        np.testing.assert_allclose(before, after, atol=1e-12)

    def test_outside_block_untouched(self):
        img = random_image(17)
        out = erase_block(img, 0, 0, 3, 3)
        np.testing.assert_array_equal(out[:, 3:, :], img[:, 3:, :])
        np.testing.assert_array_equal(out[:, :3, 3:], img[:, :3, 3:])

    def test_tiny_image_block_at_least_one_pixel(self):
        img = np.random.default_rng(18).uniform(size=(3, 2, 2))
        for seed in range(16):
            top, left, bh, bw = _draw_erase_box(RngStream(seed).generator(), 2, 2)
            assert bh >= 1 and bw >= 1 and top + bh <= 2 and left + bw <= 2
            erase_block(img, top, left, bh, bw)  # must not raise


class TestAugmentPipeline:
    def test_all_probabilities_zero_is_identity(self):
        # a stream on which no op fires; about 6% of streams are one
        img = random_image(19)
        rng = next(RngStream(19, (i,)) for i in range(200) if not applied_ops(img, RngStream(19, (i,))))
        np.testing.assert_array_equal(augment(img, rng), img)

    def test_same_stream_bit_identical(self):
        img = random_image(20)
        a = augment(img, RngStream(21, (4,)))
        b = augment(img, RngStream(21, (4,)))
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        img = random_image(22)
        outs = [augment(img, RngStream(23, (i,))) for i in range(8)]
        assert any(not np.array_equal(o, outs[0]) for o in outs[1:])

    def test_plan_matches_probabilities(self):
        # binomial counts within 5 sigma of the recipe's Bernoulli means
        n = 10_000
        counts = {"gamma": 0, "erase": 0, "shuffle": 0, "flip": 0, "rotate": 0}
        root = RngStream(99)
        img = random_image(99, h=16, w=16)
        for i in range(n):
            for op, _ in applied_ops(img, root.child(i)):
                counts[op] += 1
        for op, p in (("gamma", 0.3), ("shuffle", 0.3), ("flip", 0.5), ("rotate", 0.5), ("erase", 0.5)):
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(counts[op] - n * p) < 5 * sigma, (op, counts[op])

    def test_pixel_range_preserved(self):
        root = RngStream(7)
        for i in range(200):
            img = random_image(1000 + i)
            out = augment(img, root.child(i))
            assert out.min() >= 0.0 and out.max() <= 1.0
            assert out.shape == img.shape

    def test_bytes_pinned(self):
        # every draw and op of the recipe, over channel counts and sizes
        # where the erase box, the permutation and the quarter turns differ
        h = hashlib.sha256()
        root = RngStream(25)
        for c in (1, 3, 4):
            for size in (1, 2, 5, 16):
                img = random_image(100 * c + size, c, size, size)
                for i in range(40):
                    out = augment(img, root.child(c).child(size).child(i))
                    h.update(np.ascontiguousarray(out, dtype="<f8").tobytes())
        assert h.hexdigest() == "25b4ff5dca3516edfc710e8fd94c31f1905cd8ff1562f8e1994f3c4075ecf147"

    def test_ops_run_in_pipeline_order(self):
        # the recorded ops, applied by hand in pipeline order, give augment's
        # output bit for bit; gamma and erase together check that gamma runs
        # first, since the erased block is the mean of gamma-corrected pixels
        root = RngStream(24)
        order = list(PIPELINE)
        for i in range(300):
            img = random_image(2400 + i)
            ops = applied_ops(img, root.child(i))
            names = [name for name, _ in ops]
            assert names == sorted(names, key=order.index)
            manual = img
            for name, args in ops:
                manual = getattr(imageaug, PIPELINE[name])(manual, *args)
            np.testing.assert_array_equal(augment(img, root.child(i)), manual)


class TestAugmentProperties:
    @given(images, streams)
    def test_range_and_shape_preserved(self, img, rng):
        out = augment(img, rng)
        assert out.shape == img.shape
        assert 0.0 <= out.min() and out.max() <= 1.0

    @given(images, streams)
    def test_same_stream_same_output(self, img, rng):
        assert np.array_equal(augment(img, rng), augment(img, rng))

