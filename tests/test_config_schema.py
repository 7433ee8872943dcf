"""Round trips of any valid config, the defaults of the fields it leaves out, and the
README's config table against the declarations in ``config.py``."""

import json
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ortho_lora.config import (
    VALID_MODES,
    ExperimentConfig,
    config_from_dict,
    load_config,
    save_config,
)

README = Path(__file__).resolve().parents[1] / "README.md"
TYPE_WORDS = {int: "integer", float: "number", str: "string", bool: "boolean"}
SIGNS = {"ge": ">=", "gt": ">", "le": "<=", "lt": "<"}

# every optional field, by dotted path, and the value it reads when left out
DEFAULTS = {
    "optimizer.lr_base": 5e-4, "optimizer.beta1": 0.9, "optimizer.beta2": 0.999,
    "optimizer.eps": 1e-8, "optimizer.weight_decay": 0.0,
    "schedule.steps_per_epoch": None,
    "tasks.conflict_level": 0.0, "tasks.noise_sigma": 0.0, "tasks.shared_scale": 1.0,
    "surgery.scope": "PER_MATRIX", "surgery.project_against": "original",
    "surgery.record_conflicts": True,
    "output_dir": None,
}
KINDS = ("regression", "classification")
FINITE = st.floats(min_value=0.0, max_value=1e6)
POSITIVE = st.floats(min_value=1e-9, max_value=1e6)


def maybe(draw, section: dict, key: str, strategy) -> None:
    """Set section[key] to a draw from strategy, or leave the key out."""
    if draw(st.booleans()):
        section[key] = draw(strategy)


@st.composite
def valid_configs(draw) -> dict:
    dims = draw(st.lists(st.integers(1, 9), min_size=2, max_size=4))
    num_tasks = draw(st.integers(1, 4))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=num_tasks, max_size=num_tasks))
    classes = "classification" in kinds
    out_dim = draw(st.integers(2 if classes else 1, 5))
    # a pool of n >= out_dim examples holds out_dim classes of >= 10% each, as
    # classification needs (out_dim <= 5)
    n_train = draw(st.integers(out_dim if classes else 1, 64))
    tasks = {"in_dim": dims[0], "n_train": n_train,
             "n_eval": draw(st.integers(out_dim if classes else 1, 64)), "out_dim": out_dim}
    if draw(st.booleans()):  # one kind for every task
        tasks["kind"], tasks["num_tasks"] = kinds[0], num_tasks
    else:  # a kind per task, its length optionally repeated
        tasks["kind"] = kinds
        maybe(draw, tasks, "num_tasks", st.just(num_tasks))
    maybe(draw, tasks, "conflict_level",
          st.floats(0.0, 1.0) if num_tasks > 1 else st.just(0.0))
    maybe(draw, tasks, "noise_sigma", FINITE)
    maybe(draw, tasks, "shared_scale", FINITE)
    if classes and tasks.get("shared_scale", 1.0) == 0.0 and tasks.get("noise_sigma", 0.0) == 0.0:
        tasks["noise_sigma"] = draw(POSITIVE)  # a noiseless rank-1 teacher draws too few labels
    schedule = {"epochs": draw(st.integers(0, 5)), "batch_size": draw(st.integers(1, n_train))}
    maybe(draw, schedule, "steps_per_epoch", st.none() | st.integers(1, 9))
    raw = {
        "version": 1,
        "seed": draw(st.integers(0, 2**64 - 1)),
        "modes": draw(st.lists(st.sampled_from(VALID_MODES), min_size=1, unique=True)),
        "model": {"layer_dims": dims, "rank": draw(st.integers(1, min(dims))),
                  "alpha": draw(POSITIVE | st.integers(1, 64)), "sigma_init": draw(POSITIVE)},
        "schedule": schedule,
        "tasks": tasks,
    }
    if draw(st.booleans()):
        optimizer = raw["optimizer"] = {}
        maybe(draw, optimizer, "lr_base", FINITE)
        maybe(draw, optimizer, "beta1", st.floats(0.0, 1.0, exclude_max=True))
        maybe(draw, optimizer, "beta2", st.floats(0.0, 1.0, exclude_max=True))
        maybe(draw, optimizer, "eps", POSITIVE)
        maybe(draw, optimizer, "weight_decay", FINITE | st.integers(0, 3))
    if draw(st.booleans()):
        surgery = raw["surgery"] = {}
        maybe(draw, surgery, "scope", st.sampled_from(["PER_MATRIX", "PER_ROLE_CONCAT"]))
        maybe(draw, surgery, "project_against", st.just("original"))
        maybe(draw, surgery, "record_conflicts", st.booleans())
    maybe(draw, raw, "output_dir", st.none() | st.text(max_size=8))
    return raw


def lookup(tree: dict, dotted: str):
    """tree's value at a dotted path; KeyError when a section or the field is absent."""
    for key in dotted.split("."):
        tree = tree[key]
    return tree


@settings(max_examples=150, deadline=None)
@given(valid_configs())
def test_any_valid_config_round_trips_and_omitted_fields_read_their_defaults(raw):
    config = config_from_dict(raw)
    saved = config.to_dict()
    assert config_from_dict(saved) == config
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        save_config(config, path)
        assert load_config(path) == config
        assert json.loads(path.read_text(encoding="utf-8")) == saved
    for dotted, default in DEFAULTS.items():
        try:
            value = lookup(raw, dotted)
        except KeyError:
            value = default
        assert lookup(saved, dotted) == value, dotted
    for name in ("model", "schedule", "tasks"):  # every required or given field keeps its value
        for key, value in raw[name].items():
            if key not in ("kind", "num_tasks"):
                assert saved[name][key] == value, f"{name}.{key}"
    num_tasks = raw["tasks"].get("num_tasks", len(raw["tasks"]["kind"]))
    kinds = raw["tasks"]["kind"]
    assert config.tasks.kinds == (kinds if isinstance(kinds, list) else [kinds] * num_tasks)
    assert (config.seed, config.modes) == (raw["seed"], raw["modes"])


def declared_fields() -> dict:
    """Every config field by dotted JSON path: its dataclass field, or None for a key
    that a reader takes beside the fields (``tasks.num_tasks``)."""
    found = {}

    def walk(cls, prefix, extra):
        found.update({prefix + key: None for key in extra})
        for f in fields(cls):
            name = prefix + f.metadata.get("key", f.name)
            if isinstance(f.metadata.get("read"), type):  # a nested section
                walk(f.metadata["read"], name + ".", f.metadata.get("extra", ()))
            else:
                found[name] = f

    walk(ExperimentConfig, "", ())
    return found


def readme_rows() -> dict[str, list[str]]:
    """The README config table's rows by field path: [type, rule, default]."""
    section = README.read_text(encoding="utf-8").split("\n## Config\n")[1].split("\n## ")[0]
    rows = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            name, *cells = (cell.strip() for cell in line.strip("|").split("|"))
            rows[name.strip("`")] = cells
    return rows


def test_readme_config_table_documents_each_declared_field():
    declared, rows = declared_fields(), readme_rows()
    assert sorted(rows) == sorted(declared)
    for name, f in declared.items():
        kind, rule, default = rows[name]
        if f is None:
            continue
        if f.default is MISSING and f.default_factory is MISSING:
            assert default == "required", name
        else:
            cell = default.strip("`")
            assert (cell if default.startswith("`") else json.loads(cell)) == f.default, name
        spec = f.metadata
        if "type" in spec:  # a scalar: its type, bounds, choices and fixed value
            assert kind.startswith(TYPE_WORDS[spec["type"]]), name
            for bound, sign in SIGNS.items():
                if bound in spec:
                    value = spec[bound]
                    text = f"{value:g}" if isinstance(value, float) else str(value)
                    assert f"{sign} {text}" in rule, name
            for choice in spec.get("choices", ()):
                assert f"`{choice}`" in rule, name
            assert "equals" not in spec or f"must be {spec['equals']}" in rule, name
