"""Experiment configuration: JSON schema, strict validation, hashing, builders.

A config file is plain JSON.  A section with a dataclass is read straight
into it: its keys are the dataclass's fields, an omitted key takes the
dataclass default, and the dataclass checks the values.  An unknown key is
rejected, because a silently ignored typo ("finetune_stpes") would corrupt a
whole ablation grid.
Two fingerprints are derived from a config: `config_hash` covers everything
that affects results (the output directory is excluded), and `arch_hash`
covers only what a checkpoint's tensors must agree with.
"""

from __future__ import annotations

import hashlib
import json
import types
import typing
from dataclasses import MISSING, dataclass, fields, is_dataclass

from .data import (
    Dataset,
    EpisodeSpec,
    SplitSpec,
    SyntheticSpec,
    gen_synthetic,
    load_dataset,
    split_classes,
)
from .errors import ConfigurationError, ContractError
from .evaluate import AblationGrid
from .meta import REGIMES, MetaTestConfig, TrainConfig
from .nn import (
    Conv4Spec,
    DropoutSpec,
    Network,
    ParamPartition,
    build_conv4,
    partition_params,
)
from .rng import Rng, check_seed


def _check_keys(obj: dict, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} must be a JSON object, got {type(obj).__name__}")
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise ConfigurationError(f"{where}: unknown keys {unknown}")
    missing = sorted(set(required) - set(obj))
    if missing:
        raise ConfigurationError(f"{where}: missing required keys {missing}")


# fields the config sets itself, never from a key: a training's seed comes
# from `seeds`, a meta-test's episode count from `n_eval_episodes`
_NOT_KEYS = {TrainConfig: ("seed",), MetaTestConfig: ("Q",)}


def _read(cls, obj, where: str, **defaults):
    """The dataclass `cls` built from the JSON object `obj` found at `where`.

    The keys are the fields of `cls` less its `_NOT_KEYS`: a field with no
    default is required, and an omitted one takes its value in `defaults`, or
    else the dataclass default.  `_value` reads each value by its field's
    annotation, and an error `cls` raises comes back as a ConfigurationError
    that names `where`.
    """
    hints = typing.get_type_hints(cls)
    keys = {f.name: f.default is MISSING and f.default_factory is MISSING
            for f in fields(cls) if f.name not in _NOT_KEYS.get(cls, ())}
    _check_keys(obj, where, tuple(key for key, required in keys.items() if required), tuple(keys))
    values = {**defaults, **{key: _value(value, hints[key], f"{where}.{key}") for key, value in obj.items()}}
    try:
        return cls(**values)
    except (ConfigurationError, ContractError) as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


def _value(value, hint, where: str):
    """`value` read as the type `hint`.

    An int rejects a bool, a float also takes an int, a tuple or frozenset
    takes a list, `X | None` takes null, and a dataclass takes an object.
    """
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):  # X | None
        (inner,) = (arg for arg in args if arg is not type(None))
        # a falsy dropout spec ({} or false) means none, as it always has
        if value is None or (inner is DropoutSpec and not value):
            return None
        return _value(value, inner, where)
    if typing.get_origin(hint) in (tuple, frozenset):
        if not isinstance(value, list):
            raise ConfigurationError(f"{where} must be a list, got {type(value).__name__}")
        return typing.get_origin(hint)(_value(v, args[0], f"{where}[{i}]") for i, v in enumerate(value))
    if is_dataclass(hint):
        spec = _read(hint, value, where)
        # the dataclass's block size of 1 would be a silent choice
        if hint is DropoutSpec and spec.kind == "dropblock" and "block_size" not in value:
            raise ConfigurationError(f"{where}: dropblock requires block_size")
        return spec
    if hint is float and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if not isinstance(value, hint) or (isinstance(value, bool) and hint is not bool):
        raise ConfigurationError(f"{where} must be {hint.__name__}, got {type(value).__name__}")
    return value


@dataclass(frozen=True)
class DatasetSource:
    """Either a path to an FSDS file or a synthetic generator spec."""

    path: str | None = None
    synthetic: SyntheticSpec | None = None

    def load(self) -> Dataset:
        if self.path is not None:
            return load_dataset(self.path)
        return gen_synthetic(self.synthetic)


@dataclass(frozen=True)
class NetworkFactory:
    """Builds the configured Conv-4 and its parameter partition for a regime.

    The head width follows the regime: the base classes for pretraining, C
    for episodic training.  Picklable on purpose: ablation workers receive
    it across process boundaries.  Calling it with the same regime and seed
    always yields bitwise-identical initial parameters.
    """

    network: Conv4Spec
    input_shape: tuple[int, int, int]
    base_classes: int
    ways: int
    meta_tags: frozenset[str]

    def _n_classes(self, regime: str) -> int:
        return self.base_classes if regime == "pretrain_finetune" else self.ways

    def __call__(self, regime: str, seed: int) -> tuple[Network, ParamPartition]:
        net = build_conv4(self.network.widths, self.input_shape, self._n_classes(regime), self.network.head,
                          Rng(seed), cosine_scale=self.network.cosine_scale)
        return net, partition_params(net, self.meta_tags)

    def arch_hash(self, regime: str) -> str:
        payload = {
            "widths": list(self.network.widths),
            "input_shape": list(self.input_shape),
            "n_classes": self._n_classes(regime),
            "head": self.network.head,
            "cosine_scale": self.network.cosine_scale,
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass
class ExperimentConfig:
    regime: str
    source: DatasetSource
    split: SplitSpec | tuple[int, int, int]
    network: Conv4Spec
    meta_tags: frozenset[str]
    train: TrainConfig
    meta_test: MetaTestConfig
    episode: EpisodeSpec
    seeds: tuple[int, ...]
    out: str | None
    ablation: AblationGrid
    config_hash: str

    def resolve_split(self, ds: Dataset) -> SplitSpec:
        if isinstance(self.split, SplitSpec):
            return self.split
        base, val, novel = self.split
        return SplitSpec.from_counts(ds.n_classes, base, val, novel)

    def views(self, ds: Dataset) -> tuple[Dataset, Dataset, Dataset]:
        return split_classes(ds, self.resolve_split(ds))

    def network_factory(self, ds: Dataset) -> NetworkFactory:
        return NetworkFactory(self.network, ds.image_shape, len(self.resolve_split(ds).base), self.episode.C,
                              self.meta_tags)


def config_hash(raw: dict) -> str:
    """sha256 of the canonical JSON form; `out` never affects results."""
    scrubbed = {k: v for k, v in raw.items() if k != "out"}
    canon = json.dumps(scrubbed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


_TOP_KEYS_REQ = ("regime", "dataset", "split", "network", "partition", "episode")
_TOP_KEYS_OPT = ("train", "meta_test", "n_eval_episodes", "seeds", "out", "ablation")


def parse_config(raw: dict) -> ExperimentConfig:
    _check_keys(raw, "config", _TOP_KEYS_REQ, _TOP_KEYS_OPT)

    regime = _value(raw["regime"], str, "config.regime")
    if regime not in REGIMES:
        raise ConfigurationError(f"config.regime must be one of {list(REGIMES)}, got {regime!r}")

    source = _parse_dataset(raw["dataset"])
    split = _parse_split(raw["split"])
    network = _read(Conv4Spec, raw["network"], "config.network")
    if "cosine_scale" in raw["network"] and network.head != "cosine":
        raise ConfigurationError("config.network.cosine_scale only applies to the cosine head")
    meta_tags = _parse_partition(raw["partition"])
    episode = _read(EpisodeSpec, raw["episode"], "config.episode")

    train = _read(TrainConfig, raw.get("train", {}), "config.train")
    # a meta-test's Q is the config's n_eval_episodes
    n_eval = _value(raw.get("n_eval_episodes", MetaTestConfig.Q), int, "config.n_eval_episodes")
    if n_eval < 1:
        raise ConfigurationError(f"config.n_eval_episodes must be >= 1, got {n_eval}")
    meta_test = _read(MetaTestConfig, raw.get("meta_test", {}), "config.meta_test", Q=n_eval)

    seeds = _value(raw.get("seeds", [0]), tuple[int, ...], "config.seeds")
    if not seeds:
        raise ConfigurationError("config.seeds must not be empty")
    for i, seed in enumerate(seeds):
        check_seed(seed, f"config.seeds[{i}]")
    out = _value(raw["out"], str, "config.out") if "out" in raw else None

    # a grid's batch sizes and regimes default to the config's own
    ablation = _read(AblationGrid, raw.get("ablation", {}), "config.ablation",
                     batch_sizes=(train.batch_size,), regimes=(regime,))

    return ExperimentConfig(
        regime=regime, source=source, split=split, network=network,
        meta_tags=meta_tags, train=train, meta_test=meta_test, episode=episode,
        seeds=seeds, out=out, ablation=ablation, config_hash=config_hash(raw),
    )


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigurationError(f"{path}: top level must be a JSON object")
    return parse_config(raw)


def _parse_dataset(obj) -> DatasetSource:
    source = _read(DatasetSource, obj, "config.dataset")
    # one key, and not null
    if len(obj) != 1 or source == DatasetSource():
        raise ConfigurationError("config.dataset needs exactly one of 'path' or 'synthetic'")
    return source


def _parse_split(obj) -> SplitSpec | tuple[int, int, int]:
    _check_keys(obj, "config.split", ("base", "val", "novel"))
    values = [obj["base"], obj["val"], obj["novel"]]
    if all(isinstance(v, int) and not isinstance(v, bool) for v in values):
        return (values[0], values[1], values[2])
    if all(isinstance(v, list) for v in values):
        return _read(SplitSpec, obj, "config.split")
    raise ConfigurationError("config.split: base/val/novel must be all counts or all class lists")


def _parse_partition(obj) -> frozenset[str]:
    _check_keys(obj, "config.partition", ("meta_tags",))
    return _value(obj["meta_tags"], frozenset[str], "config.partition.meta_tags")
