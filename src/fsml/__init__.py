"""Few-shot meta-learning with meta-dropout on a hand-rolled autodiff core.

One bilevel objective, two regimes (episodic and pretrain-finetune), a strict
meta/task parameter partition, and dropout variants that perturb only the
meta-knowledge during meta-training.
"""

from .checkpoint import apply_checkpoint, dump_params, load_checkpoint, parse_params
from .data import (
    Batch,
    Dataset,
    Episode,
    EpisodeDistribution,
    EpisodeSpec,
    SplitSpec,
    SyntheticSpec,
    gen_synthetic,
    load_dataset,
    sample_episode,
    split_classes,
    write_dataset,
)
from .errors import (
    CheckpointError,
    ConditioningError,
    ConfigurationError,
    ContractError,
    DimensionError,
    FormatError,
    FsmlError,
    SamplingError,
)
from .evaluate import (
    AblationAssets,
    AblationCell,
    AblationGrid,
    AblationRow,
    EvalReport,
    ci95,
    evaluate_fewshot,
    format_mean_ci,
    placement_label,
    run_ablation,
    write_ablation_csv,
)
from .meta import (
    KnowledgeState,
    MetaTestConfig,
    TrainConfig,
    analytic_meta_gradient,
    apply_meta_dropout,
    inner_adapt,
    meta_test,
    meta_train_episodic,
    meta_train_pretrain,
)
from .nn import (
    MODE_EVAL,
    MODE_TRAIN,
    STAGE_BOTH,
    STAGE_META_TESTING,
    STAGE_META_TRAINING,
    DropoutSpec,
    Network,
    ParamPartition,
    build_conv4,
    cosine_logits,
    dropblock_gamma,
    forward,
    make_dropout_mask,
    partition_params,
    validate_specs,
)
from .rng import Rng
from .tensor import Tape, Tensor, backward, finite_diff_grad

__version__ = "0.1.0"
