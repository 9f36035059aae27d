"""Few-shot evaluation and the ablation runner.

Every evaluation episode restarts from the same trained snapshot: sample an
episode, adapt a fresh copy on its support set, classify its query set, and
only then aggregate.  Episode i draws from a stream derived from (seed, i),
so episodes are independent of execution order and a parallel run merges, by
index, into exactly the serial result.

Accuracy is reported as mean over episodes with a 95% confidence halfwidth,
1.96 * std(ddof=1) / sqrt(n), formatted in percent: "62.71 ± 0.87".
"""

from __future__ import annotations

import csv
import json
import logging
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import ops
from .data import Batch, Dataset, EpisodeSpec, sample_plan
from .errors import ContractError
from .meta import (
    REGIMES,
    KnowledgeState,
    MetaTestConfig,
    TrainConfig,
    adaptation_cut,
    meta_test,
    meta_test_prefix,
    meta_train,
    step_start,
)
from .nn import _KINDS, MODE_EVAL, STAGE_META_TESTING, DropoutSpec, Network, forward
from .rng import Rng, derive_rows

log = logging.getLogger("fsml")


def ci95(values: np.ndarray) -> tuple[float, float]:
    """(mean, halfwidth) of the normal-approximation 95% confidence interval.

    Halfwidth is 1.96 * sample std (ddof=1) / sqrt(n); a single value has no
    spread estimate, so its halfwidth is defined as 0.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ContractError("ci95 needs at least one value")
    mean = float(values.mean())
    if values.size == 1:
        return mean, 0.0
    return mean, float(1.96 * values.std(ddof=1) / np.sqrt(values.size))


def format_mean_ci(mean: float, halfwidth: float) -> str:
    """Percent with two decimals, e.g. 0.62713, 0.0087 -> '62.71 ± 0.87'."""
    return f"{mean * 100:.2f} ± {halfwidth * 100:.2f}"


@dataclass(frozen=True)
class EvalReport:
    n_episodes: int
    mean_acc: float
    ci95: float
    seed: int
    config_hash: str
    per_episode_acc: tuple[float, ...] = ()

    def summary(self) -> str:
        return format_mean_ci(self.mean_acc, self.ci95)

    def to_json(self) -> str:
        payload = {
            "n_episodes": self.n_episodes,
            "mean_acc": self.mean_acc,
            "ci95": self.ci95,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "per_episode_acc": list(self.per_episode_acc),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _grouped_forward(net: Network, rows: np.ndarray, start: int, stop: int, chunk: int) -> np.ndarray:
    """An eval-mode forward of `net` from point `start` to `stop` on `rows`, with parameters that hold a slice per chunk.

    Each parameter of the layers it runs holds one slice per chunk of `chunk`
    rows.  Groups of whole chunks, each of up to _CONV_STACK_FLOATS input
    floats (or one chunk), run as one forward on their slices [e0:e1], so
    every GEMM is one slice with its chunk's own shape (see ops.conv2d).  A
    last short chunk is zero-padded and the padding trimmed off.
    """
    per = max(1, _CONV_STACK_FLOATS // (chunk * int(np.prod(rows.shape[1:]))))
    params = [(t, t.data) for layer in net.layers[start // 2 : (stop + 1) // 2] for t in layer.params().values()]
    parts = []
    for e0 in range(0, -(-len(rows) // chunk), per):
        batch = rows[e0 * chunk : (e0 + per) * chunk]
        if len(batch) % chunk:
            batch = np.concatenate([batch, np.zeros((-len(batch) % chunk, *batch.shape[1:]), batch.dtype)])
        for t, data in params:
            t.data = data[e0 : e0 + per]
        parts.append(forward(net, batch, MODE_EVAL, STAGE_META_TESTING, start=start, stop=stop).data)
    for t, data in params:
        t.data = data
    return np.concatenate(parts)[: len(rows)]


def _embed(net: Network, images: np.ndarray, cut: int, chunk: int) -> np.ndarray:
    """An eval-mode forward of `net` up to point `cut` on every image, in GEMMs of exactly `chunk` images.

    The convs hold a read-only broadcast of their kernels and biases with
    one slice per chunk, run in groups by `_grouped_forward`.  A row's bits
    depend on the row count of each layer's GEMM, so with `chunk` the size
    of an episode's query or support set every row is bitwise the one that
    episode's own forward would give, wherever the position probe
    (`_position_free`) passes.
    """
    grouped = net.clone()
    for layer in grouped.layers[: (cut + 1) // 2]:
        for t in layer.params().values():
            t.data = np.broadcast_to(t.data, (-(-len(images) // chunk), *t.shape))
    return _grouped_forward(grouped, images, 0, cut, chunk)


def _position_free(net: Network, first: np.ndarray, cut: int) -> bool:
    """The position probe: whether the rows of `first` at point `cut` keep their bits wherever they sit in the batch.

    It runs `first` as one plain forward, as an episode runs its own set,
    then rotated by one and reversed through `_embed`, and compares every
    row bit for bit.  With some OpenBLAS kernels (`Haswell`) a row's bits
    change when it moves into or out of the last position of a batch.
    """
    rows = forward(net, first, MODE_EVAL, STAGE_META_TESTING, stop=cut).data
    orders = np.concatenate([np.roll(np.arange(len(first)), 1), np.arange(len(first))[::-1]])
    return _embed(net, first[orders], cut, len(first)).tobytes() == rows[orders].tobytes()


def _cache(net: Network, images: np.ndarray, read: np.ndarray, cut: int, chunk: int) -> tuple[np.ndarray, int]:
    """The view with `_embed`'s rows at `cut` in its rows `read` (sorted; others zero), or the images and point 0.

    The images come at cut 0 or where the position probe fails on the first
    chunk read: a cache whose rows sit elsewhere in their chunk than in an
    episode's own forward gives that episode its bits only where it passes.
    """
    if not cut or not _position_free(net, images[read[:chunk]], cut):
        return images, 0
    rows = _embed(net, images[read], cut, chunk)
    feats = np.zeros((len(images), *rows.shape[1:]), dtype=rows.dtype)
    feats[read] = rows
    return feats, cut


def _episode_rng(seed: int, index: int) -> Rng:
    """The stream episode `index` of an evaluation samples and adapts from."""
    return Rng(seed).derive(f"eval-episode-{index}")


def _accuracy(logits: np.ndarray, query_y: np.ndarray) -> float:
    """The fraction of one episode's query rows whose largest logit is at their label."""
    return float((np.argmax(logits, axis=1) == query_y).mean())


# episodes adapted in one stack whose steps run only the head: enough to
# spread each step's Python cost thin, few enough to bound the stacked arrays
# whatever n_episodes is
_STACK = 100
# the input floats, at most, of a stack's first conv per step and of one
# `_grouped_forward` group; larger stacks of 32x32 images got slower as their
# conv activations left the cache (README, "Meta-test cost")
_CONV_STACK_FLOATS = 1 << 15


def _stack_size(state: KnowledgeState, espec: EpisodeSpec, mcfg: MetaTestConfig) -> int:
    """The episodes of one stack: _STACK when meta_test's steps run only the head, else _CONV_STACK_FLOATS' worth."""
    net = state.network
    start = step_start(state, mcfg)
    if start == len(net.layers) - 1:
        return _STACK
    floats = espec.C * espec.K * int(np.prod(net.in_shape(start)))
    return max(1, min(_STACK, _CONV_STACK_FLOATS // floats))


def _accuracies(indices, episodes, state: KnowledgeState, espec: EpisodeSpec, mcfg: MetaTestConfig,
                query_cache: tuple[np.ndarray, int], support_cache: tuple[np.ndarray, int]) -> list[float]:
    """The accuracies of episodes `indices`, given as (their rngs, support rows, query rows) of the view in `episodes`.

    Each cache is (rows of the view at a point, that point); at point 0 the
    rows are the images.  One meta_test call adapts the stack and
    `_grouped_forward` classifies it; where the query cache stops short of
    `meta_test_prefix`, the query sets run up to it as `_embed` chunks of
    one query set each, as each episode's own forward would.
    """
    (feats, cut), (support_feats, support_cut) = query_cache, support_cache
    rngs, support_idx, query_idx = episodes
    prefix, query_size = meta_test_prefix(state, mcfg), espec.C * espec.Q_query
    support_y = np.repeat(np.arange(espec.C, dtype=np.int64), espec.K)
    query_y = np.repeat(np.arange(espec.C, dtype=np.int64), espec.Q_query)
    adapted = meta_test(state, (Batch(support_feats[idx], support_y) for idx in support_idx), mcfg, rngs,
                        start=support_cut)
    rows = feats[query_idx.ravel()]
    if cut < prefix:
        rows = _embed(state.network, rows, prefix, query_size)
    logits = _grouped_forward(adapted.network, rows, prefix, 2 * len(adapted.network.layers), query_size)
    return [_accuracy(episode_logits, query_y) for episode_logits in logits]


# the arguments every task of a pool worker shares, sent once per worker
_POOL_ARGS: tuple = ()


def _pool_init(*args) -> None:
    global _POOL_ARGS
    ops.set_blas_threads(1)
    _POOL_ARGS = args


def _pool_accuracies(stack) -> list[float]:
    return _accuracies(*stack, *_POOL_ARGS)


@ops.one_blas_thread()
def evaluate_fewshot(
    state: KnowledgeState,
    novel_view: Dataset,
    espec: EpisodeSpec,
    mcfg: MetaTestConfig,
    n_episodes: int = 600,
    seed: int = 0,
    config_hash: str = "",
    jobs: int = 1,
) -> EvalReport:
    """Adapt-and-classify over `n_episodes` episodes of the novel view.

    Every episode is sampled first, all at once (`sample_plan`).  The part
    of the forward that meta_test leaves unchanged, up to the point
    `meta_test_prefix`, then runs once per call over the images some episode
    reads as query, and each episode classifies its query from those
    features.  With freeze_meta and finetune steps, the part that meta_test
    runs once per support set, up to the point `adaptation_cut`, runs once
    per call over the images read as support, and meta_test adapts each
    episode from its support rows (`start`).  Each cache is built in chunks of one query or one support
    set, after a position probe (`_position_free`), so the result is bitwise
    that of per-episode forwards; where the probe fails, that cache is
    skipped.  A cache embeds the probe and min(view, n_episodes * chunk)
    images at most.

    The episodes run in stacks, each adapted by one meta_test call and
    classified by a query forward per group of its episodes, with the
    bytes of per-episode meta_test in every config.  A stack holds up to
    100 episodes when meta_test's steps run only the head, and fewer when
    they run a conv (`_stack_size`); a short evaluation runs stacks of one.
    The stacks run in `jobs` worker processes when jobs > 1.  Results are
    merged by episode index, so jobs > 1 is bit-identical to a serial run.
    Per-episode accuracies are accumulated in float64 and the mean is
    computed once.
    """
    if n_episodes < 1:
        raise ContractError(f"n_episodes must be >= 1, got {n_episodes}")
    if jobs < 1:
        raise ContractError(f"jobs must be >= 1, got {jobs}")
    rngs = [_episode_rng(seed, i) for i in range(n_episodes)]
    support_idx, query_idx = sample_plan(novel_view, espec, derive_rows(rngs, "sample"))
    net, images, query_size = state.network, novel_view.images, espec.C * espec.Q_query
    # without freeze_meta, meta_test adapts conv1 and the adaptation cut is 0; with no steps it reads no support rows
    support_cut = adaptation_cut(state, mcfg) if mcfg.finetune_steps else 0
    args = (state, espec, mcfg,
            _cache(net, images, np.unique(query_idx), meta_test_prefix(state, mcfg), query_size),
            _cache(net, images, np.unique(support_idx), support_cut, espec.C * espec.K))
    # a short evaluation (fewer query images than the view holds) runs stacks of one; perfbench counts them
    size = 1 if n_episodes * query_size < novel_view.n_samples else _stack_size(state, espec, mcfg)
    stacks = [(range(i, min(i + size, n_episodes)), (rngs[i : i + size], support_idx[i : i + size],
                                                      query_idx[i : i + size])) for i in range(0, n_episodes, size)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_pool_init, initargs=args) as pool:
            parts = list(pool.map(_pool_accuracies, stacks, chunksize=max(1, len(stacks) // (4 * jobs))))
    else:
        parts = [_accuracies(*stack, *args) for stack in stacks]
    accs = tuple(acc for part in parts for acc in part)
    mean, halfwidth = ci95(accs)
    return EvalReport(n_episodes, mean, halfwidth, seed, config_hash, per_episode_acc=accs)


# ---------------------------------------------------------------------------
# ablation grid


_ARMS = ("none", "M", "D", "M&D")


def placement_label(placements: frozenset[str]) -> str:
    """Human row label for a placement set, matching the reporting convention."""
    named = {
        frozenset({"conv4"}): "on group 4",
        frozenset({"conv3", "conv4"}): "on group 3&4",
        frozenset({"flatten"}): "on last flatten layer",
    }
    return named.get(frozenset(placements), "on " + "&".join(sorted(placements)))


@dataclass(frozen=True)
class AblationCell:
    arm: str
    kind: str
    placements: frozenset[str]
    batch_size: int
    regime: str


@dataclass
class AblationGrid:
    """Cross product of regularizer arms and hyperparameter axes.

    The meta-dropout spec of the M arms is the assets' `train_cfg.meta_dropout`
    with the cell's kind and placements; the D arms use the assets'
    `mtest_cfg.task_dropout` as given.
    """

    arms: tuple[str, ...] = _ARMS
    kinds: tuple[str, ...] = ("dropblock",)
    placements: tuple[frozenset[str], ...] = (frozenset({"conv3", "conv4"}),)
    batch_sizes: tuple[int, ...] = (64,)
    regimes: tuple[str, ...] = ("pretrain_finetune",)

    def __post_init__(self):
        self.placements = tuple(frozenset(p) for p in self.placements)
        for axis, valid in (("arms", _ARMS), ("kinds", _KINDS), ("regimes", REGIMES)):
            bad = [v for v in getattr(self, axis) if v not in valid]
            if bad:
                raise ContractError(f"unknown ablation {axis} {bad}; valid: {list(valid)}")
        # any empty axis makes an empty cross product: a grid of no cells
        empty = [f.name for f in fields(self) if not getattr(self, f.name)]
        if empty:
            raise ContractError(f"ablation axes {empty} are empty, so the grid has no cells")
        if any(b < 1 for b in self.batch_sizes):
            raise ContractError(f"ablation batch_sizes must be >= 1, got {list(self.batch_sizes)}")
        if frozenset() in self.placements:
            raise ContractError("an ablation placement must name at least one layer tag")

    def cells(self) -> list[AblationCell]:
        out = []
        for regime in self.regimes:
            for batch in self.batch_sizes:
                for kind in self.kinds:
                    for placement in self.placements:
                        for arm in self.arms:
                            out.append(AblationCell(arm, kind, placement, batch, regime))
        return out


@dataclass
class AblationAssets:
    """Everything a cell run needs; the grid only varies what a cell changes."""

    base_view: Dataset
    novel_view: Dataset
    build_net: object  # callable (regime, seed) -> (Network, ParamPartition), as config.NetworkFactory
    train_cfg: TrainConfig
    mtest_cfg: MetaTestConfig
    espec: EpisodeSpec
    config_hash: str = ""


@dataclass
class AblationRow:
    cell: AblationCell
    seed: int
    report: EvalReport | None
    error: str = ""


def _cell_specs(cell: AblationCell, assets: AblationAssets) -> tuple[DropoutSpec | None, DropoutSpec | None]:
    meta_spec = task_spec = None
    if cell.arm in ("M", "M&D"):
        template = assets.train_cfg.meta_dropout
        if template is None:
            raise ContractError(f"arm {cell.arm!r} needs train_cfg.meta_dropout as its template")
        meta_spec = replace(template, kind=cell.kind, placements=cell.placements,
                            block_size=template.block_size if cell.kind == "dropblock" else 1)
    if cell.arm in ("D", "M&D"):
        task_spec = assets.mtest_cfg.task_dropout
        if task_spec is None:
            raise ContractError(f"arm {cell.arm!r} needs mtest_cfg.task_dropout")
    return meta_spec, task_spec


def run_cell(cell: AblationCell, assets: AblationAssets, seed: int) -> EvalReport:
    """Train one configuration from scratch and evaluate it."""
    meta_spec, task_spec = _cell_specs(cell, assets)
    net, partition = assets.build_net(cell.regime, seed)
    cfg = replace(assets.train_cfg, seed=seed, batch_size=cell.batch_size, meta_dropout=meta_spec)
    state = meta_train(cell.regime, assets.base_view, assets.espec, net, partition, cfg)
    mcfg = replace(assets.mtest_cfg, task_dropout=task_spec)
    return evaluate_fewshot(
        state, assets.novel_view, assets.espec, mcfg,
        n_episodes=mcfg.Q, seed=seed, config_hash=assets.config_hash,
    )


def run_ablation(grid: AblationGrid, assets: AblationAssets, seeds, jobs: int = 1) -> list[AblationRow]:
    """Run the full grid x seeds; a failed cell is recorded, but a missing template fails the grid before training.

    With jobs > 1 each worker receives `assets` once, and each task only its
    (cell, seed).
    """
    if jobs < 1:
        raise ContractError(f"jobs must be >= 1, got {jobs}")
    for cell in grid.cells():
        _cell_specs(cell, assets)
    work = [(cell, seed) for cell in grid.cells() for seed in seeds]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_pool_init, initargs=(assets,)) as pool:
            return _logged_rows(pool.map(_pool_ablation_item, work), len(work))
    return _logged_rows((_run_ablation_item(item, assets) for item in work), len(work))


def _logged_rows(rows, total: int) -> list[AblationRow]:
    """Collect `rows` in order, logging each as it completes with the elapsed time and an ETA."""
    started = time.monotonic()
    out = []
    for i, row in enumerate(rows, 1):
        out.append(row)
        elapsed = time.monotonic() - started
        cell = row.cell
        log.info("cell %d/%d (%s, %s, %s, seed %d), elapsed %.1fs, ETA %.1fs",
                 i, total, cell.regime, cell.arm, cell.kind, row.seed, elapsed, elapsed / i * (total - i))
    return out


def _pool_ablation_item(item) -> AblationRow:
    return _run_ablation_item(item, *_POOL_ARGS)


def _run_ablation_item(item, assets: AblationAssets) -> AblationRow:
    """One (cell, seed) run, exceptions captured so the rest of the grid proceeds."""
    cell, seed = item
    try:
        return AblationRow(cell, seed, run_cell(cell, assets, seed))
    except Exception as exc:  # noqa: BLE001 - cell isolation is the contract
        return AblationRow(cell, seed, None, error=f"{type(exc).__name__}: {exc}")


_CSV_COLUMNS = ["regime", "arm", "kind", "placement", "batch_size", "seed", "n_episodes", "mean_acc", "ci95", "error"]


def write_ablation_csv(rows: list[AblationRow], path) -> None:
    """One line per (cell, seed) plus one aggregate line per cell over its seeds."""
    grouped: dict[AblationCell, list[AblationRow]] = {}
    for row in rows:
        grouped.setdefault(row.cell, []).append(row)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for cell, cell_rows in grouped.items():
            lead = [cell.regime, cell.arm, cell.kind, placement_label(cell.placements), cell.batch_size]
            for row in cell_rows:
                report = row.report
                writer.writerow(lead + ([row.seed, "", "", "", row.error] if report is None else [
                    row.seed, report.n_episodes, f"{report.mean_acc:.6f}", f"{report.ci95:.6f}", ""]))
            means = np.asarray([r.report.mean_acc for r in cell_rows if r.report is not None], dtype=np.float64)
            if means.size:
                agg_mean, agg_ci = ci95(means)
                writer.writerow(lead + [f"mean({means.size})", "", f"{agg_mean:.6f}", f"{agg_ci:.6f}", ""])
