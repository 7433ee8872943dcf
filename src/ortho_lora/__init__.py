"""Desk-scale multi-task low-rank-adapter training lab.

A shared frozen backbone carries trainable low-rank adapter pairs and
per-task heads. Training modes range from fully independent per-task models
to joint training to conflict-aware training, where task gradients with
negative inner products are projected onto each other's normal planes before
the update. Synthetic task families with a dialable conflict level make the
optimizer's properties measurable on a laptop.
"""

from .adapter import (
    FrozenLayer,
    LoraAdapter,
    init_adapter,
    load_adapter,
    save_adapter,
)
from .config import (
    JOINT,
    ORTHO_FLAT,
    ORTHO_STRUCTURED,
    SINGLE_TASK,
    VALID_MODES,
    ExperimentConfig,
    config_from_dict,
    load_config,
    save_config,
)
from .dense import Matrix, Rng, gaussian_matrix
from .errors import ConfigError, NumericError, OrthoLoraError, ParameterError, ShapeError
from .model import (
    CLASSIFICATION,
    REGRESSION,
    BlockId,
    GradientStack,
    MultiTaskModel,
    TaskBatch,
    TaskGradient,
    build_model,
    eval_metric,
    joint_gradient,
    predict,
    stack_copies,
    stacked_gradient,
    task_loss_and_gradient,
)
from .optim import AdamWHyper, AdamWState, adamw_step, linear_decay_lr
from .reporting import (
    RankRow,
    SummaryTable,
    build_summary,
    conflict_frequency,
    rank_sweep,
    recovery,
    summarize_dir,
    write_metrics,
)
from .surgery import (
    FLAT,
    PER_MATRIX,
    PER_ROLE_CONCAT,
    ConflictPair,
    ConflictReport,
    SurgeryStats,
    build_conflict_report,
    merge,
    project_pair,
    surgery,
)
from .tasks import (
    SyntheticTaskSet,
    make_conflict_set,
    subset_batch,
)
from .trainer import (
    ExperimentResult,
    EvalRecord,
    MetricsLog,
    StepRecord,
    count_backward_passes,
    run_experiment,
    run_mode,
    train_step,
)

__version__ = "0.1.0"
