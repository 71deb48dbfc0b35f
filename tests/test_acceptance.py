"""Acceptance suite: one test per shipped criterion, in order.

Each test prints a single [criterion N] PASS/FAIL line (visible with
pytest -s or on failure). Criterion 8 runs the full desk-scale pipeline
and dominates the suite's runtime.
"""

import time

import numpy as np

import fewtune.diffcore as dc
from fewtune.cli import _config_from_args, build_parser
from fewtune.episodes import EpisodeShape, build_pseudo_query, sample_episode
from fewtune.evalharness import EvalPlan, ablate, emit_report, run_eval
from fewtune.fewshot import Backbone, BackboneSpec, MetaParams, finetune, meta_train
from fewtune.imageaug import (
    augment,
    channel_shuffle,
    flip,
    rotate,
)
from fewtune.losses import (
    HyperParams,
    compute_prototypes,
    cosface_loss,
    finetune_objective,
    proto_xent,
    ptloss,
)
from fewtune.rng import RngStream
from fewtune.synthetic import generate_synthetic, source_domain, target_domain

from helpers import applied_ops, gradient_check
from test_losses import ptloss_bruteforce, scaled_cosine_xent


def report(number: int, ok: bool, detail: str):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def random_episode_embeddings(rng, n, k, d):
    support = rng.normal(size=(n * k, d))
    labels = np.repeat(np.arange(n), k)
    return support, labels


def test_criterion_1_ptloss_oracle_equivalence():
    rng = np.random.default_rng(1001)
    start = time.monotonic()
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 6))
        d = int(rng.integers(1, 9))
        support, labels = random_episode_embeddings(rng, n, k, d)
        margin = float(rng.uniform(0.0, 2.0))
        protos = compute_prototypes(dc.constant(support), labels)
        ours = float(ptloss(dc.constant(support), labels, protos, margin).values)
        reference = ptloss_bruteforce(support, labels, protos.values, margin)
        mismatches += ours != reference
    elapsed = time.monotonic() - start
    report(
        1,
        mismatches == 0 and elapsed < 10.0,
        f"1000 episodes bit-exact vs brute force ({mismatches} mismatches, {elapsed:.1f}s)",
    )


def _nondegenerate_support(rng, n, k, d, margin):
    """Random support whose triplet slacks sit away from hinge kinks."""
    while True:
        support, labels = random_episode_embeddings(rng, n, k, d)
        protos = np.stack([support[labels == j].mean(axis=0) for j in range(n)])
        dists = np.sqrt(((support[:, None, :] - protos[None, :, :]) ** 2).sum(axis=2))
        own = dists[np.arange(n * k), labels]
        slack = own[:, None] - dists + margin
        off = np.ones_like(slack, dtype=bool)
        off[np.arange(n * k), labels] = False
        if np.abs(slack[off]).min() > 1e-3 and own.min() > 1e-3:
            return support, labels


def test_criterion_2_gradient_suite():
    rng = np.random.default_rng(1002)
    start = time.monotonic()
    tol = 1e-4
    worst = 0.0

    for _ in range(20):
        support, labels = _nondegenerate_support(rng, 3, 2, 4, 1.0)
        err = gradient_check(
            lambda t: ptloss(t, labels, compute_prototypes(t, labels), 1.0),
            dc.param(support.copy()),
        )
        worst = max(worst, err)

    for _ in range(20):
        emb = rng.normal(size=(5, 4))
        weights = dc.constant(rng.normal(size=(3, 4)))
        y = rng.integers(0, 3, size=5)
        err = gradient_check(
            lambda t: cosface_loss(t, y, weights, 30.0, 0.35), dc.param(emb)
        )
        worst = max(worst, err)

    for _ in range(20):
        protos = compute_prototypes(dc.constant(rng.normal(size=(4, 3))), np.arange(4))
        y = rng.integers(0, 4, size=5)
        err = gradient_check(lambda t: proto_xent(t, y, protos), dc.param(rng.normal(size=(5, 3))))
        worst = max(worst, err)

    hp = HyperParams()
    for i in range(20):
        support, s_labels = _nondegenerate_support(rng, 3, 2, 4, hp.triplet_margin)
        pseudo = rng.normal(size=(6, 4))
        p_labels = rng.integers(0, 3, size=6)
        weights = dc.constant(rng.normal(size=(3, 4)))
        if i % 2 == 0:
            fn = lambda t: finetune_objective(
                t, s_labels, dc.constant(pseudo), p_labels, weights, hp
            )
            point = dc.param(support.copy())
        else:
            sup = dc.constant(support)
            fn = lambda t: finetune_objective(sup, s_labels, t, p_labels, weights, hp)
            point = dc.param(pseudo.copy())
        worst = max(worst, gradient_check(fn, point))

    elapsed = time.monotonic() - start
    report(
        2,
        worst < tol and elapsed < 30.0,
        f"4 losses x 20 points, max rel err {worst:.2e} (tol {tol}), {elapsed:.1f}s",
    )


def test_criterion_3_cosface_reductions():
    rng = np.random.default_rng(1003)
    max_gap = 0.0
    for _ in range(50):
        emb = rng.normal(size=(6, 5))
        weights = rng.normal(size=(4, 5))
        y = rng.integers(0, 4, size=6)
        s = float(rng.uniform(5.0, 30.0))
        ours = float(cosface_loss(dc.constant(emb), y, dc.constant(weights), s, 0.0).values)
        max_gap = max(max_gap, abs(ours - scaled_cosine_xent(emb, y, weights, s)))

    checked = 0
    monotone = True
    while checked < 100:
        emb = rng.normal(size=(4, 5))
        weights = rng.normal(size=(3, 5))
        y = rng.integers(0, 3, size=4)
        s = float(rng.uniform(5.0, 30.0))
        m1 = float(rng.uniform(0.0, 0.5))
        m2 = m1 + float(rng.uniform(0.05, 0.3))
        l1 = float(cosface_loss(dc.constant(emb), y, dc.constant(weights), s, m1).values)
        if l1 < 1e-12:  # saturated: no headroom to measure strict growth
            continue
        l2 = float(cosface_loss(dc.constant(emb), y, dc.constant(weights), s, m2).values)
        monotone &= l2 > l1
        checked += 1

    report(
        3,
        max_gap < 1e-12 and monotone,
        f"m=0 reduction gap {max_gap:.2e} (< 1e-12); strict increase on {checked} instances",
    )


def test_criterion_4_pseudo_query_sizing():
    rng = np.random.default_rng(1004)
    names = tuple(f"c{i}" for i in range(6))
    sizes = {}
    traced = True
    for k, expected in ((5, 100), (20, 200), (50, 200)):
        from fewtune.episodes import LabeledDataset

        images = {
            name: np.stack([
                rng.uniform(size=(3, 4, 4)) for _ in range(k + 3)
            ])
            for name in names
        }
        ds = LabeledDataset(domain="toy", images=images)
        ep = sample_episode(ds, EpisodeShape(5, k, 3), RngStream(4000 + k))
        build_pseudo_query(ep, RngStream(5000 + k))
        sizes[k] = len(ep.pseudo_images)
        traced &= all(
            label == ep.support_labels[src]
            for label, src in zip(ep.pseudo_labels, ep.pseudo_sources)
        )
    ok = sizes == {5: 100, 20: 200, 50: 200} and traced
    report(4, ok, f"pseudo sizes {sizes}, labels trace to support sources: {traced}")


def test_criterion_5_augmentation_statistics():
    n = 10_000
    counts = {"gamma": 0, "erase": 0, "shuffle": 0, "flip": 0, "rotate": 0}
    root = RngStream(1005)
    img = np.random.default_rng(1005).uniform(size=(3, 16, 16))
    for i in range(n):
        for op, _ in applied_ops(img, root.child(i)):
            counts[op] += 1
    rates_ok = True
    for op, p in (("gamma", 0.3), ("shuffle", 0.3), ("flip", 0.5), ("rotate", 0.5), ("erase", 0.5)):
        sigma = np.sqrt(n * p * (1 - p))
        rates_ok &= abs(counts[op] - n * p) < 5 * sigma

    rng = np.random.default_rng(5005)
    img = rng.uniform(size=(3, 8, 8))
    out = img
    for _ in range(4):
        out = rotate(out, 90)
    identities_ok = np.array_equal(out, img)
    identities_ok &= np.array_equal(rotate(rotate(img, 180), 180), img)
    for axis in ("horizontal", "vertical"):
        identities_ok &= np.array_equal(flip(flip(img, axis), axis), img)
    perm = (2, 0, 1)
    inv = tuple(int(i) for i in np.argsort(perm))
    identities_ok &= np.array_equal(
        channel_shuffle(channel_shuffle(img, perm), inv), img
    )

    range_ok = True
    for i in range(1000):
        sample = rng.uniform(size=(3, 8, 8))
        result = augment(sample, root.child(n + i))
        range_ok &= 0.0 <= result.min() and result.max() <= 1.0

    report(
        5,
        rates_ok and identities_ok and range_ok,
        f"op counts {counts} within 5 sigma; identities bit-exact: {identities_ok}; "
        f"range preserved on 1000 images: {range_ok}",
    )


def test_criterion_6_query_isolation():
    spec = BackboneSpec(input_dim=48, hidden=(16, 12), embed_dim=8)
    bk = Backbone.create(spec, RngStream(6))
    ds = generate_synthetic(
        source_domain(n_classes=6, images_per_class=12, image_size=4), RngStream(7)
    )
    hp = HyperParams(finetune_epochs=3)
    total_reads = 0
    for i in range(100):
        stream = RngStream(1006, (i,))
        ep = sample_episode(ds, EpisodeShape(5, 5, 5), stream.child(0))
        build_pseudo_query(ep, rng=stream.child(1))
        finetune(bk, ep, hp)
        total_reads += ep.query_reads
    report(6, total_reads == 0, f"query reads during 100 fine-tuned episodes: {total_reads}")


def test_criterion_7_determinism_under_parallelism(tmp_path):
    spec = BackboneSpec(input_dim=48, hidden=(16, 12), embed_dim=8)
    bk = Backbone.create(spec, RngStream(8))
    ds = generate_synthetic(
        target_domain(n_classes=6, images_per_class=12, image_size=4), RngStream(9)
    )
    plan = EvalPlan(HyperParams(episodes_count=8, finetune_epochs=2), EpisodeShape(3, 2, 3), 1007)
    paths = {}
    for workers in (1, 8):
        rep = run_eval(bk, ds, plan, "with_pqs", workers)
        paths[workers] = emit_report(rep, "json", tmp_path / f"report_w{workers}.json")
    identical = paths[1].read_bytes() == paths[8].read_bytes()
    report(7, identical, f"1-worker vs 8-worker machine-readable reports byte-identical: {identical}")


def test_criterion_8_directional_ablation():
    start = time.monotonic()
    source = generate_synthetic(source_domain(), RngStream(81))
    target = generate_synthetic(target_domain(), RngStream(82))
    backbone = Backbone.create(BackboneSpec(), RngStream(83))
    trained = meta_train(
        backbone, source, params=MetaParams(episodes_per_epoch=300, epochs=5), rng=RngStream(84)
    )
    # 100 fine-tune epochs, transductive inference; two pool workers give the
    # same bits as one (criterion 7) and run the pool at paper width
    result = ablate(trained, target, EvalPlan(HyperParams(episodes_count=100), master_seed=2024), workers=2)
    elapsed = time.monotonic() - start
    lower = result.delta_mean - result.delta_ci95
    ok = result.delta_mean > 0.0 and lower > 0.0 and elapsed < 900.0
    report(
        8,
        ok,
        f"with_pqs {result.with_pqs.mean:.4f} vs no_finetune {result.no_finetune.mean:.4f}, "
        f"paired delta {result.delta_mean:+.4f} ci95 {result.delta_ci95:.4f} "
        f"(lower bound {lower:+.4f} > 0), {elapsed:.0f}s < 900s",
    )


def test_criterion_9_published_defaults():
    args = build_parser().parse_args(["eval", "--snapshot", "s", "--data", "d", "--out", "o"])
    hp = _config_from_args(args).hyperparams()
    values = {
        "episodes": hp.episodes_count,
        "epochs": hp.finetune_epochs,
        "margin": hp.triplet_margin,
        "s": hp.lmm_scale,
        "m": hp.lmm_margin,
        "transductive": hp.transductive,
    }
    expected = {"episodes": 600, "epochs": 100, "margin": 1.0, "s": 30.0, "m": 0.35, "transductive": True}
    report(9, values == expected, f"bare `fewtune eval` runs with {values}")
