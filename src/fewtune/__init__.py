"""Cross-domain few-shot fine-tuning with pseudo query sets, a
prototypical triplet loss, and a large-margin cosine classifier head."""

from .diffcore import (
    BatchNormState,
    ComputeGraph,
    DiffTensor,
    backward,
    batch_norm,
    constant,
    cosine_matrix,
    gradient_check,
    l2_normalize,
    matmul,
    param,
    relu,
    sgd_step,
    squared_euclidean_matrix,
    zero_grads,
)
from .episodes import (
    Episode,
    EpisodeShape,
    LabeledDataset,
    PQS_RULES,
    build_pseudo_query,
    load_dataset,
    pqs_rule,
    sample_episode,
    write_dataset,
)
from .evalharness import AblationResult, EvalPlan, EvalReport, ablate, emit_report, run_eval
from .fewshot import (
    Backbone,
    BackboneSpec,
    FinetuneState,
    classify_cosine,
    embed,
    finetune,
    infer,
    meta_train,
)
from .imageaug import (
    AugmentationPlan,
    Image,
    augment,
    channel_shuffle,
    flip,
    gamma_correct,
    plan_augmentation,
    rotate,
)
from .losses import (
    HyperParams,
    compute_prototypes,
    cosface_loss,
    finetune_objective,
    proto_xent,
    ptloss,
)
from .rng import RngStream
from .synthetic import DomainSpec, generate_synthetic, source_domain, target_domain

__version__ = "0.1.0"
