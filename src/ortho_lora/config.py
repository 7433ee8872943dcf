"""Declarative experiment configs: versioned JSON, strictly validated.

Each field is declared once, as ``dataclasses.field`` metadata on its
section's dataclass (``AdamWHyper`` for the optimizer): its JSON type,
bounds, choices and nullability, with the dataclass default as its default.
One loop, ``_read``, reads every section against those declarations. It
rejects unknown keys at every nesting level, so a typo in an ablation sweep
fails loudly instead of silently running defaults. The few fields that are
not plain scalars have short readers, and the rules that tie two fields
together follow the loop. Every error names the offending field path. A
sweep's ``sweep.json`` (``SweepRecord``) and an adapter dump
(``adapter.AdapterRecord``) are read the same way; the mode, task-kind and
scope names live here too, so that config imports nothing from ``model``.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

from .errors import ConfigError
from .files import atomic_write
from .optim import AdamWHyper

CONFIG_VERSION = 1

SINGLE_TASK = "SINGLE_TASK"
JOINT = "JOINT"
ORTHO_FLAT = "ORTHO_FLAT"
ORTHO_STRUCTURED = "ORTHO_STRUCTURED"
VALID_MODES = (SINGLE_TASK, JOINT, ORTHO_FLAT, ORTHO_STRUCTURED)

REGRESSION = "regression"
CLASSIFICATION = "classification"
# a drawn label pool holds every class at least this often (tasks._labels_balanced)
MIN_CLASS_FRACTION = 0.10

FLAT = "FLAT"
PER_MATRIX = "PER_MATRIX"
PER_ROLE_CONCAT = "PER_ROLE_CONCAT"
STRUCTURED_SCOPES = (PER_MATRIX, PER_ROLE_CONCAT)
# surgery projects against the other tasks' original gradients; the field
# stays so that saved configs keep loading
PROJECT_AGAINST_ORIGINAL = "original"


_TYPES = {int: (int, "an integer"), float: ((int, float), "a number"),
          str: (str, "a string"), bool: (bool, "a boolean")}
_BOUNDS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}  # operator names and their signs
_POSITIVE_INT = {"type": int, "ge": 1}
# the bound of every integer field that declares no "le" of its own (all but
# seed): an int64, so no size or count reaches numpy past what it can hold
MAX_INT = 2**63 - 1
_MODE = {"type": str, "choices": VALID_MODES}
_KIND = {"type": str, "choices": (REGRESSION, CLASSIFICATION)}


def _field(type_: type, default=MISSING, **rules):
    """A scalar field, declared once: its JSON type (int, float, str or bool), its rules
    (bounds ``ge``, ``gt``, ``le``, ``lt``; ``choices``; ``equals``; ``null`` if None is
    allowed; ``noun`` naming the type in errors) and its default (none: it is required)."""
    return field(default=default, metadata={"type": type_, **rules})


def _check(value, path: str, spec):
    """value, checked against a scalar declaration; a number comes back a finite float."""
    if value is None and spec.get("null"):
        return None
    accepts, noun = _TYPES[spec["type"]]
    if isinstance(value, bool) is not (spec["type"] is bool) or not isinstance(value, accepts):
        raise ConfigError(f"{path}: expected {spec.get('noun', noun)}, got {value!r}")
    if spec["type"] is int:
        spec = {"le": MAX_INT, **spec}
    if spec["type"] is float:
        try:
            value = float(value)
        except OverflowError:  # an integer past the float range
            value = math.inf
        if not math.isfinite(value):
            raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    for rule, sign in _BOUNDS.items():
        if rule in spec and not getattr(operator, rule)(value, spec[rule]):
            raise ConfigError(f"{path}: must be {sign} {spec[rule]}, got {value}")
    if "choices" in spec and value not in spec["choices"]:
        raise ConfigError(f"{path}: must be one of {list(spec['choices'])}, got {value!r}")
    if "equals" in spec and value != spec["equals"]:
        raise ConfigError(f"{path}: expected {spec['equals']}, got {value!r}")
    return value


def _read(cls, raw, path: str, extra: tuple[str, ...] = ()):
    """The section raw, read into a cls. A field's metadata is a scalar declaration (see
    _field), or its ``read`` is a section dataclass, read by this loop in turn, or a function
    of (value, path, section); ``key`` renames it in JSON. A reader reads the ``extra`` keys."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected an object, got {type(raw).__name__}")
    specs = fields(cls)
    unknown = sorted(set(raw) - {f.metadata.get("key", f.name) for f in specs} - set(extra))
    if unknown:
        raise ConfigError(f"{path}: unknown field(s) {unknown}")
    values = {}
    for f in specs:
        key = f.metadata.get("key", f.name)
        where = f"{path}.{key}"
        if key not in raw:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{where}: missing required field")
            continue  # the dataclass applies the default
        read = f.metadata.get("read")
        if read is None:
            values[f.name] = _check(raw[key], where, f.metadata)
        elif isinstance(read, type):
            values[f.name] = _read(read, raw[key], where, f.metadata.get("extra", ()))
        else:
            values[f.name] = read(raw[key], where, raw)
    return cls(**values)


def _modes(value, path: str, _section: dict) -> list[str]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of mode names")
    modes = [_check(m, f"{path}[{i}]", _MODE) for i, m in enumerate(value)]
    if len(set(modes)) != len(modes):
        raise ConfigError(f"{path}: duplicate modes")
    return modes


def _layer_dims(value, path: str, _section: dict) -> list[int]:
    if not isinstance(value, list) or not 2 <= len(value) <= 4:
        raise ConfigError(f"{path}: expected a list of 2-4 dims (1-3 layers)")
    return [_check(v, f"{path}[{i}]", _POSITIVE_INT) for i, v in enumerate(value)]


def _kinds(value, path: str, section: dict) -> list[str]:
    """The task kinds: one kind and num_tasks, or a list with its length optionally repeated."""
    num_tasks, count_path = section.get("num_tasks"), path.rpartition(".")[0] + ".num_tasks"
    if isinstance(value, list):
        kinds = [_check(k, f"{path}[{i}]", _KIND) for i, k in enumerate(value)]
        if num_tasks is not None and _check(num_tasks, count_path, {"type": int}) != len(kinds):
            raise ConfigError(f"{count_path}: does not match length of kind list")
    else:
        kind = _check(value, path, _KIND)
        if num_tasks is None:
            raise ConfigError(f"{count_path}: required when kind is a single string")
        kinds = [kind] * _check(num_tasks, count_path, _POSITIVE_INT)
    if not kinds:
        raise ConfigError(f"{path}: at least one task required")
    return kinds


@dataclass
class ModelConfig:
    layer_dims: list[int] = field(metadata={"read": _layer_dims})
    rank: int = _field(int, ge=1)
    alpha: float = _field(float, gt=0.0)
    sigma_init: float = _field(float, gt=0.0)


@dataclass
class ScheduleConfig:
    epochs: int = _field(int, ge=0)
    batch_size: int = _field(int, ge=1)
    steps_per_epoch: int | None = _field(int, None, ge=1, null=True)  # None: one pass over the pool


@dataclass(kw_only=True)
class TasksConfig:
    kinds: list[str] = field(metadata={"key": "kind", "read": _kinds})
    in_dim: int = _field(int, ge=1)
    out_dim: int = _field(int, ge=1)
    conflict_level: float = _field(float, 0.0, ge=0.0, le=1)
    noise_sigma: float = _field(float, 0.0, ge=0.0)
    shared_scale: float = _field(float, 1.0, ge=0.0)
    n_train: int = _field(int, ge=1)
    n_eval: int = _field(int, ge=1)

    @property
    def num_tasks(self) -> int:
        return len(self.kinds)


@dataclass
class SurgeryConfig:
    scope: str = _field(str, PER_MATRIX, choices=STRUCTURED_SCOPES)  # used by ORTHO_STRUCTURED
    project_against: str = _field(str, PROJECT_AGAINST_ORIGINAL, choices=(PROJECT_AGAINST_ORIGINAL,))
    record_conflicts: bool = _field(bool, True)  # also log conflict diagnostics during JOINT


@dataclass(kw_only=True)
class ExperimentConfig:
    version: int = _field(int, equals=CONFIG_VERSION)
    seed: int = _field(int, ge=0, le=2**64 - 1)
    modes: list[str] = field(metadata={"read": _modes})
    model: ModelConfig = field(metadata={"read": ModelConfig})
    optimizer: AdamWHyper = field(default_factory=AdamWHyper, metadata={"read": AdamWHyper})
    schedule: ScheduleConfig = field(metadata={"read": ScheduleConfig})
    tasks: TasksConfig = field(metadata={"read": TasksConfig, "extra": ("num_tasks",)})
    surgery: SurgeryConfig = field(default_factory=SurgeryConfig, metadata={"read": SurgeryConfig})
    output_dir: str | None = _field(str, None, null=True, noun="a string path")

    def steps_per_epoch(self) -> int:
        if self.schedule.steps_per_epoch is not None:
            return self.schedule.steps_per_epoch
        return max(1, self.tasks.n_train // self.schedule.batch_size)

    def total_steps(self) -> int:
        return self.schedule.epochs * self.steps_per_epoch()

    def to_dict(self) -> dict:
        """The raw config that config_from_dict reads back to an equal config."""
        raw = asdict(self)
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
    config = _read(ExperimentConfig, raw, "config")
    # the rules that tie two fields together
    model, tasks = config.model, config.tasks
    if model.rank > min(model.layer_dims):
        raise ConfigError(
            f"config.model.rank: {model.rank} exceeds min layer dim {min(model.layer_dims)}")
    if tasks.conflict_level > 0 and tasks.num_tasks < 2:
        raise ConfigError("config.tasks.num_tasks: conflict_level > 0 needs at least 2 tasks")
    if CLASSIFICATION in tasks.kinds:
        if tasks.out_dim < 2:
            raise ConfigError("config.tasks.out_dim: classification needs >= 2 classes")
        for name, n in (("n_train", tasks.n_train), ("n_eval", tasks.n_eval)):
            if tasks.out_dim * math.ceil(MIN_CLASS_FRACTION * n) > n:
                raise ConfigError(f"config.tasks.{name}: {n} examples cannot hold {tasks.out_dim} "
                                  f"classes of >= {MIN_CLASS_FRACTION:.0%} each")
        labels = 2 if tasks.conflict_level > 0 else 1  # argmax labels of a rank-1 teacher
        if tasks.shared_scale == 0 and tasks.noise_sigma == 0 and tasks.out_dim > labels:
            raise ConfigError(f"config.tasks.shared_scale: 0 with noise_sigma 0 gives a rank-1 teacher "
                              f"of at most {labels} argmax labels, not out_dim={tasks.out_dim} classes")
    if tasks.in_dim != model.layer_dims[0]:
        raise ConfigError(f"config.tasks.in_dim: {tasks.in_dim} does not match "
                          f"model.layer_dims[0]={model.layer_dims[0]}")
    if config.schedule.batch_size > tasks.n_train:
        raise ConfigError(f"config.schedule.batch_size: {config.schedule.batch_size} "
                          f"exceeds tasks.n_train={tasks.n_train}")
    return config


def check_array_sizes(config: ExperimentConfig) -> None:
    """A ConfigError naming the field that sizes an array a run of config would
    make past what numpy can size, MAX_INT bytes at 8 per entry: each field's
    own bound leaves such products possible."""
    tasks, schedule = config.tasks, config.schedule
    data, dims = max(tasks.in_dim, tasks.out_dim), config.model.layer_dims
    steps_field = ("schedule.steps_per_epoch" if (schedule.steps_per_epoch or 0) > schedule.epochs
                   else "schedule.epochs")
    arrays = [  # (the field, the entries of an array a run makes), the shape's sizes first
        ("model.layer_dims", max(d_in * d_out for d_in, d_out in zip(dims, dims[1:]))),  # a w0
        ("tasks.out_dim", tasks.num_tasks * tasks.out_dim * dims[-1]),  # the heads
        ("tasks.n_train", tasks.num_tasks * tasks.n_train * data),  # the train pool
        ("tasks.n_eval", (tasks.n_train + tasks.n_eval) * data),  # a task's drawn examples
        # the Gram store, at most: 2 scope groups per layer
        (steps_field, config.total_steps() * 2 * (len(dims) - 1) * tasks.num_tasks ** 2),
    ]
    for name, entries in arrays:
        if 8 * entries > MAX_INT:
            raise ConfigError(f"config.{name}: a run of this config needs an array of {entries} "
                              f"entries of 8 bytes, more than numpy can size ({MAX_INT} bytes)")


def _load(path: str | Path, name: str, read):
    """read applied to the JSON object of the file at path; a ConfigError names the file."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{name} file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # invalid JSON or text encoding
        raise ConfigError(f"{p}: invalid JSON ({exc})") from None
    try:
        return read(raw)
    except ConfigError as exc:
        raise ConfigError(f"{p}: {exc}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    return _load(path, "config", config_from_dict)


def save_config(config: ExperimentConfig, path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")


def _ranks(value, path: str, _section: dict) -> list[int]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list of ranks")
    ranks = [_check(r, f"{path}[{i}]", _POSITIVE_INT) for i, r in enumerate(value)]
    if ranks != sorted(set(ranks)):
        raise ConfigError(f"{path}: expected ascending ranks with no repeats, got {ranks}")
    return ranks


@dataclass
class SweepRecord:
    """What a sweep-rank table holds: its ranks, ascending, and its seed count."""
    ranks: list[int] = field(metadata={"read": _ranks})
    seeds: int = _field(int, ge=1)


def load_sweep(path: str | Path) -> SweepRecord:
    return _load(path, "sweep", lambda raw: _read(SweepRecord, raw, "sweep"))


def save_sweep(sweep: SweepRecord, path: str | Path) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(asdict(sweep), indent=2) + "\n")
