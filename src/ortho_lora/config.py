"""Declarative experiment configs: versioned JSON, strictly validated.

Unknown keys are rejected at every nesting level so a typo in an ablation
sweep fails loudly instead of silently running defaults. Every validation
error names the offending field path.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .errors import ConfigError
from .files import atomic_write
from .model import CLASSIFICATION, PER_MATRIX, PER_ROLE_CONCAT, REGRESSION
from .optim import AdamWHyper

CONFIG_VERSION = 1

SINGLE_TASK = "SINGLE_TASK"
JOINT = "JOINT"
ORTHO_FLAT = "ORTHO_FLAT"
ORTHO_STRUCTURED = "ORTHO_STRUCTURED"
VALID_MODES = (SINGLE_TASK, JOINT, ORTHO_FLAT, ORTHO_STRUCTURED)

STRUCTURED_SCOPES = (PER_MATRIX, PER_ROLE_CONCAT)
# surgery projects against the other tasks' original gradients; the field
# stays so that saved configs keep loading
PROJECT_AGAINST_ORIGINAL = "original"


def _expect_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(d: dict, path: str, allowed: set[str]) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {unknown}")


def _get(d: dict, path: str, key: str, required: bool = True, default=None):
    if key not in d:
        if required:
            raise ConfigError(f"{path}.{key}: missing required field")
        return default
    return d[key]


def _as_int(value, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
    return value


def _as_float(value, path: str, minimum: float | None = None,
              exclusive_min: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    value = float(value)
    if not math.isfinite(value):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    if exclusive_min is not None and value <= exclusive_min:
        raise ConfigError(f"{path}: must be > {exclusive_min}, got {value}")
    return value


def _as_str(value, path: str, choices: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    if choices is not None and value not in choices:
        raise ConfigError(f"{path}: must be one of {list(choices)}, got {value!r}")
    return value


@dataclass
class ModelConfig:
    layer_dims: list[int]
    rank: int
    alpha: float
    sigma_init: float


@dataclass
class ScheduleConfig:
    epochs: int
    batch_size: int
    steps_per_epoch: int | None  # None: one pass over the train pool


@dataclass
class TasksConfig:
    kinds: list[str]
    in_dim: int
    out_dim: int
    conflict_level: float
    noise_sigma: float
    shared_scale: float
    n_train: int
    n_eval: int

    @property
    def num_tasks(self) -> int:
        return len(self.kinds)


@dataclass
class SurgeryConfig:
    scope: str = PER_MATRIX  # structured scope used by ORTHO_STRUCTURED
    project_against: str = PROJECT_AGAINST_ORIGINAL
    record_conflicts: bool = True  # also log conflict diagnostics during JOINT


@dataclass
class ExperimentConfig:
    seed: int
    modes: list[str]
    model: ModelConfig
    optimizer: AdamWHyper
    schedule: ScheduleConfig
    tasks: TasksConfig
    surgery: SurgeryConfig = field(default_factory=SurgeryConfig)
    output_dir: str | None = None

    def steps_per_epoch(self) -> int:
        if self.schedule.steps_per_epoch is not None:
            return self.schedule.steps_per_epoch
        return max(1, self.tasks.n_train // self.schedule.batch_size)

    def total_steps(self) -> int:
        return self.schedule.epochs * self.steps_per_epoch()

    def to_dict(self) -> dict:
        """The raw config that config_from_dict reads back to an equal config."""
        raw = {"version": CONFIG_VERSION, **asdict(self)}
        raw["tasks"]["kind"] = raw["tasks"].pop("kinds")
        return raw

    def with_updates(self, *, seed: int | None = None, modes: list[str] | None = None,
                     rank: int | None = None) -> "ExperimentConfig":
        """Revalidated copy with a few commonly swept fields replaced."""
        raw = self.to_dict()
        if seed is not None:
            raw["seed"] = seed
        if modes is not None:
            raw["modes"] = modes
        if rank is not None:
            raw["model"]["rank"] = rank
        return config_from_dict(raw)


def config_from_dict(raw: dict) -> ExperimentConfig:
    root = _expect_mapping(raw, "config")
    _reject_unknown(
        root, "config",
        {"version", "seed", "modes", "model", "optimizer", "schedule", "tasks", "surgery", "output_dir"},
    )
    version = _as_int(_get(root, "config", "version"), "config.version")
    if version != CONFIG_VERSION:
        raise ConfigError(f"config.version: expected {CONFIG_VERSION}, got {version}")
    seed = _as_int(_get(root, "config", "seed"), "config.seed", minimum=0, maximum=2**64 - 1)

    modes_raw = _get(root, "config", "modes")
    if not isinstance(modes_raw, list) or not modes_raw:
        raise ConfigError("config.modes: expected a non-empty list of mode names")
    modes = [_as_str(m, f"config.modes[{i}]", VALID_MODES) for i, m in enumerate(modes_raw)]
    if len(set(modes)) != len(modes):
        raise ConfigError("config.modes: duplicate modes")

    md = _expect_mapping(_get(root, "config", "model"), "config.model")
    _reject_unknown(md, "config.model", {"layer_dims", "rank", "alpha", "sigma_init"})
    dims_raw = _get(md, "config.model", "layer_dims")
    if not isinstance(dims_raw, list) or len(dims_raw) < 2 or len(dims_raw) > 4:
        raise ConfigError("config.model.layer_dims: expected a list of 2-4 dims (1-3 layers)")
    layer_dims = [_as_int(v, f"config.model.layer_dims[{i}]", minimum=1) for i, v in enumerate(dims_raw)]
    rank = _as_int(_get(md, "config.model", "rank"), "config.model.rank", minimum=1)
    if rank > min(layer_dims):
        raise ConfigError(
            f"config.model.rank: {rank} exceeds min layer dim {min(layer_dims)}"
        )
    alpha = _as_float(_get(md, "config.model", "alpha"), "config.model.alpha", exclusive_min=0.0)
    sigma_init = _as_float(_get(md, "config.model", "sigma_init"), "config.model.sigma_init",
                           exclusive_min=0.0)
    model = ModelConfig(layer_dims=layer_dims, rank=rank, alpha=alpha, sigma_init=sigma_init)

    od = _expect_mapping(_get(root, "config", "optimizer", required=False, default={}), "config.optimizer")
    bounds = {"lr_base": {"minimum": 0.0}, "beta1": {"minimum": 0.0}, "beta2": {"minimum": 0.0},
              "eps": {"exclusive_min": 0.0}, "weight_decay": {"minimum": 0.0}}
    _reject_unknown(od, "config.optimizer", set(bounds))
    optimizer = AdamWHyper(**{  # an absent field takes AdamWHyper's default
        name: _as_float(od.get(name, getattr(AdamWHyper, name)), f"config.optimizer.{name}", **bound)
        for name, bound in bounds.items()})
    if not optimizer.beta1 < 1.0:
        raise ConfigError(f"config.optimizer.beta1: must be < 1, got {optimizer.beta1}")
    if not optimizer.beta2 < 1.0:
        raise ConfigError(f"config.optimizer.beta2: must be < 1, got {optimizer.beta2}")

    sd = _expect_mapping(_get(root, "config", "schedule"), "config.schedule")
    _reject_unknown(sd, "config.schedule", {"epochs", "batch_size", "steps_per_epoch"})
    schedule = ScheduleConfig(
        epochs=_as_int(_get(sd, "config.schedule", "epochs"), "config.schedule.epochs", minimum=0),
        batch_size=_as_int(_get(sd, "config.schedule", "batch_size"), "config.schedule.batch_size",
                           minimum=1),
        steps_per_epoch=(
            None
            if _get(sd, "config.schedule", "steps_per_epoch", required=False) is None
            else _as_int(sd["steps_per_epoch"], "config.schedule.steps_per_epoch", minimum=1)
        ),
    )

    td = _expect_mapping(_get(root, "config", "tasks"), "config.tasks")
    _reject_unknown(
        td, "config.tasks",
        {"kind", "num_tasks", "in_dim", "out_dim", "conflict_level", "noise_sigma",
         "shared_scale", "n_train", "n_eval"},
    )
    kind_raw = _get(td, "config.tasks", "kind")
    num_tasks = _get(td, "config.tasks", "num_tasks", required=False)
    if isinstance(kind_raw, list):
        kinds = [
            _as_str(k, f"config.tasks.kind[{i}]", (REGRESSION, CLASSIFICATION))
            for i, k in enumerate(kind_raw)
        ]
        if num_tasks is not None and _as_int(num_tasks, "config.tasks.num_tasks") != len(kinds):
            raise ConfigError("config.tasks.num_tasks: does not match length of kind list")
    else:
        kind = _as_str(kind_raw, "config.tasks.kind", (REGRESSION, CLASSIFICATION))
        if num_tasks is None:
            raise ConfigError("config.tasks.num_tasks: required when kind is a single string")
        kinds = [kind] * _as_int(num_tasks, "config.tasks.num_tasks", minimum=1)
    if not kinds:
        raise ConfigError("config.tasks.kind: at least one task required")

    tasks = TasksConfig(
        kinds=kinds,
        in_dim=_as_int(_get(td, "config.tasks", "in_dim"), "config.tasks.in_dim", minimum=1),
        out_dim=_as_int(_get(td, "config.tasks", "out_dim"), "config.tasks.out_dim", minimum=1),
        conflict_level=_as_float(_get(td, "config.tasks", "conflict_level", required=False, default=0.0),
                                 "config.tasks.conflict_level", minimum=0.0),
        noise_sigma=_as_float(_get(td, "config.tasks", "noise_sigma", required=False, default=0.0),
                              "config.tasks.noise_sigma", minimum=0.0),
        shared_scale=_as_float(_get(td, "config.tasks", "shared_scale", required=False, default=1.0),
                               "config.tasks.shared_scale", minimum=0.0),
        n_train=_as_int(_get(td, "config.tasks", "n_train"), "config.tasks.n_train", minimum=1),
        n_eval=_as_int(_get(td, "config.tasks", "n_eval"), "config.tasks.n_eval", minimum=1),
    )
    if tasks.conflict_level > 1.0:
        raise ConfigError(f"config.tasks.conflict_level: must be <= 1, got {tasks.conflict_level}")
    if tasks.conflict_level > 0 and tasks.num_tasks < 2:
        raise ConfigError("config.tasks.num_tasks: conflict_level > 0 needs at least 2 tasks")
    if any(k == CLASSIFICATION for k in kinds) and tasks.out_dim < 2:
        raise ConfigError("config.tasks.out_dim: classification needs >= 2 classes")
    if tasks.in_dim != layer_dims[0]:
        raise ConfigError(
            f"config.tasks.in_dim: {tasks.in_dim} does not match model.layer_dims[0]={layer_dims[0]}"
        )
    if schedule.batch_size > tasks.n_train:
        raise ConfigError(
            f"config.schedule.batch_size: {schedule.batch_size} exceeds tasks.n_train={tasks.n_train}"
        )

    gd = _expect_mapping(_get(root, "config", "surgery", required=False, default={}), "config.surgery")
    _reject_unknown(gd, "config.surgery", {"scope", "project_against", "record_conflicts"})
    record = _get(gd, "config.surgery", "record_conflicts", required=False, default=True)
    if not isinstance(record, bool):
        raise ConfigError(f"config.surgery.record_conflicts: expected a boolean, got {record!r}")
    surgery = SurgeryConfig(
        scope=_as_str(_get(gd, "config.surgery", "scope", required=False, default=PER_MATRIX),
                      "config.surgery.scope", STRUCTURED_SCOPES),
        project_against=_as_str(_get(gd, "config.surgery", "project_against", required=False,
                                     default=PROJECT_AGAINST_ORIGINAL),
                                "config.surgery.project_against", (PROJECT_AGAINST_ORIGINAL,)),
        record_conflicts=record,
    )

    output_dir = _get(root, "config", "output_dir", required=False)
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError(f"config.output_dir: expected a string path, got {output_dir!r}")

    return ExperimentConfig(
        seed=seed, modes=modes, model=model, optimizer=optimizer,
        schedule=schedule, tasks=tasks, surgery=surgery, output_dir=output_dir,
    )


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or text encoding
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None
    try:
        return config_from_dict(raw)
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from None


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")
