"""Fine-tuning objectives: prototypical triplet loss, large-margin cosine
loss, and the prototype cross-entropy used by toy episodic training.

The prototypical triplet loss treats each support embedding as an
anchor, its class prototype as the positive, and every other prototype
as a negative, summing (not averaging) all N*K*(N-1) hinge terms. The
large-margin loss subtracts a fixed margin m from the true-class cosine
before a scaled softmax.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from . import diffcore as dc
from .diffcore import DiffTensor
from .errors import ContractError, ParameterError


@dataclass(frozen=True)
class HyperParams:
    """Fine-tuning stage constants plus design-decision knobs.

    episodes_count, finetune_epochs, triplet_margin, lmm_scale and
    lmm_margin carry the published defaults; ptloss_weight, learning
    rate, momentum and the transductive flag are this artifact's own
    decisions, exposed for override.
    """

    episodes_count: int = 600
    finetune_epochs: int = 100
    triplet_margin: float = 1.0
    lmm_scale: float = 30.0
    lmm_margin: float = 0.35
    ptloss_weight: float = 1.0
    learning_rate: float = 3e-4
    momentum: float = 0.9
    transductive: bool = True

    def __post_init__(self):
        if not 0 < self.lmm_scale < inf:
            raise ParameterError(f"lmm_scale must be positive and finite, got {self.lmm_scale}")
        if not 0.0 <= self.lmm_margin < 1.0:
            raise ParameterError(f"lmm_margin must be in [0, 1), got {self.lmm_margin}")
        if not 0 <= self.triplet_margin < inf:
            raise ParameterError(f"triplet_margin must be >= 0 and finite, got {self.triplet_margin}")
        if not 0 <= self.ptloss_weight < inf:
            raise ParameterError(f"ptloss_weight must be >= 0 and finite, got {self.ptloss_weight}")
        dc.check_sgd(self.learning_rate, self.momentum)
        if self.episodes_count < 1:
            raise ParameterError(f"episodes_count must be >= 1, got {self.episodes_count}")
        if self.finetune_epochs < 0:
            raise ParameterError(f"finetune_epochs must be >= 0, got {self.finetune_epochs}")


def _one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ContractError(f"labels out of range for {n_classes} classes")
    hot = np.zeros((labels.size, n_classes))
    hot[np.arange(labels.size), labels] = 1.0
    return hot


def compute_prototypes(support_emb: DiffTensor, labels, n_way: int | None = None) -> DiffTensor:
    """N x D class means of support embeddings, rows in episode class order,
    differentiable through them."""
    labels = np.asarray(labels, dtype=np.int64)
    n = int(n_way) if n_way is not None else int(labels.max()) + 1
    counts = np.bincount(labels, minlength=n)
    if (counts == 0).any():
        missing = np.flatnonzero(counts == 0).tolist()
        raise ContractError(f"no support embeddings for classes {missing}")
    averaging = _one_hot(labels, n).T / counts[:, None]
    return dc.matmul(dc.constant(averaging), support_emb)


def ptloss(support_emb: DiffTensor, labels, protos: DiffTensor, margin: float) -> DiffTensor:
    """Sum of anchor/own-prototype/other-prototype hinges over the support set.

    Equivalent to looping every support sample against every other
    class's prototype; kept vectorized with the same per-term arithmetic
    so a brute-force loop reproduces it bit for bit.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = protos.shape[0]
    if n < 2:
        raise ContractError("prototypical triplet loss needs at least 2 classes")
    if margin < 0:
        raise ParameterError(f"margin must be >= 0, got {margin}")

    hot = _one_hot(labels, n)
    dist = dc.sqrt(dc.squared_euclidean_matrix(support_emb, protos))  # B x N
    own = dc.tensor_sum(dc.mul(dist, dc.constant(hot)), axis=1, keepdims=True)  # B x 1
    hinge = dc.relu(dc.add(dc.sub(own, dist), dc.constant(margin)))
    return dc.tensor_sum(dc.mul(hinge, dc.constant(1.0 - hot)))


def _stable_cross_entropy(logits: DiffTensor, hot: np.ndarray) -> DiffTensor:
    """Mean of logsumexp(row) - row[label]; max subtracted as a constant."""
    row_max = dc.constant(logits.values.max(axis=1, keepdims=True))
    lse = dc.add(dc.log(dc.tensor_sum(dc.exp(dc.sub(logits, row_max)), axis=1, keepdims=True)), row_max)
    true_logit = dc.tensor_sum(dc.mul(logits, dc.constant(hot)), axis=1, keepdims=True)
    return dc.tensor_mean(dc.sub(lse, true_logit))


def cosface_loss(
    embeddings: DiffTensor,
    labels,
    class_weights: DiffTensor,
    s: float,
    m: float,
) -> DiffTensor:
    """Scaled softmax cross-entropy on cosines, margin m off the true class."""
    if s <= 0:
        raise ParameterError(f"scale s must be positive, got {s}")
    if not 0.0 <= m < 1.0:
        raise ParameterError(f"margin m must be in [0, 1), got {m}")
    labels = np.asarray(labels, dtype=np.int64)
    hot = _one_hot(labels, class_weights.shape[0])
    cos = dc.cosine_matrix(embeddings, class_weights)
    logits = dc.mul(dc.sub(cos, dc.constant(m * hot)), dc.constant(s))
    return _stable_cross_entropy(logits, hot)


def proto_xent(query_emb: DiffTensor, labels, protos: DiffTensor) -> DiffTensor:
    """Softmax cross-entropy over negative squared distances to prototypes."""
    labels = np.asarray(labels, dtype=np.int64)
    hot = _one_hot(labels, protos.shape[0])
    logits = dc.mul(dc.squared_euclidean_matrix(query_emb, protos), dc.constant(-1.0))
    return _stable_cross_entropy(logits, hot)


def finetune_objective(
    support_emb: DiffTensor,
    support_labels,
    pseudo_emb: DiffTensor,
    pseudo_labels,
    class_weights: DiffTensor,
    hp: HyperParams,
) -> DiffTensor:
    """Large-margin loss on pseudo queries plus weighted triplet term on support."""
    if pseudo_emb.shape[0] == 0:
        raise ContractError("fine-tuning objective needs a non-empty pseudo query set")
    loss = cosface_loss(pseudo_emb, pseudo_labels, class_weights, hp.lmm_scale, hp.lmm_margin)
    if hp.ptloss_weight != 0.0:
        protos = compute_prototypes(support_emb, support_labels)
        pt = ptloss(support_emb, support_labels, protos, hp.triplet_margin)
        loss = dc.add(loss, dc.mul(dc.constant(hp.ptloss_weight), pt))
    return loss
