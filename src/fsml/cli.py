"""Command-line runner.

Subcommands: train, eval, ablate, gen-data, oracle-check.  Every artifact is
written inside --out (or config `out`) through a temp-file-plus-rename, so a
failed run never leaves a partial checkpoint or report behind.  Logging
verbosity comes from the FSML_LOG environment variable (error, warning,
info, debug); the default, warning, shows warnings such as a seed whose
training loss never left the uniform-guess plateau.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import replace
from pathlib import Path

from .checkpoint import apply_checkpoint, dump_params, load_checkpoint
from .config import ExperimentConfig, load_config
from .data import gen_synthetic, write_dataset
from .errors import ConfigurationError, FsmlError
from .evaluate import AblationAssets, evaluate_fewshot, run_ablation, write_ablation_csv
from .meta import KnowledgeState, meta_train
from .ops import blas_build
from .oracle import run_all_gates
from .rng import check_seed

log = logging.getLogger("fsml")

_LOG_LEVELS = {"error": logging.ERROR, "warning": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}


def _setup_logging() -> None:
    name = os.environ.get("FSML_LOG", "warning").lower()
    if name not in _LOG_LEVELS:
        raise ConfigurationError(f"FSML_LOG must be one of {sorted(_LOG_LEVELS)}, got {name!r}")
    logging.basicConfig(level=_LOG_LEVELS[name], format="%(levelname)s %(name)s: %(message)s")


def _atomic_write(path: Path, data: bytes | Callable[[str], None]) -> None:
    """Temp file in the destination directory, then rename.

    `data` is the bytes to write, or a callable that writes the file at the
    path it is given.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    os.close(fd)
    try:
        if callable(data):
            data(tmp)
        else:
            Path(tmp).write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _resolve_out(cfg: ExperimentConfig, args) -> Path:
    out = args.out or cfg.out
    if out is None:
        raise ConfigurationError("no output directory: pass --out or set config.out")
    return Path(out)


def _seeds(cfg: ExperimentConfig, args) -> tuple[int, ...]:
    return (args.seed,) if args.seed is not None else cfg.seeds


# ---------------------------------------------------------------------------
# subcommands


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    out = _resolve_out(cfg, args)
    ds = cfg.source.load()
    base_view, _, _ = cfg.views(ds)
    factory = cfg.network_factory(ds)
    for seed in _seeds(cfg, args):
        started = time.monotonic()
        net, partition = factory(cfg.regime, seed)
        state = meta_train(cfg.regime, base_view, cfg.episode, net, partition, replace(cfg.train, seed=seed))
        sidecar = {
            "arch_hash": factory.arch_hash(cfg.regime),
            "config_hash": cfg.config_hash,
            "regime": cfg.regime,
            "seed": seed,
            **blas_build(),
        }
        _atomic_write(out / f"ckpt_seed{seed}.fsml", dump_params(state.network.values()))
        _atomic_write(out / f"ckpt_seed{seed}.meta.json",
                      (json.dumps(sidecar, sort_keys=True, indent=2) + "\n").encode())
        lines = "".join(json.dumps(entry, sort_keys=True) + "\n" for entry in state.log)
        _atomic_write(out / f"train_seed{seed}.jsonl", lines.encode())
        final = state.log[-1]["meta_loss"] if state.log else float("nan")
        log.info("seed %d trained in %.1fs", seed, time.monotonic() - started)
        print(f"seed {seed}: final meta-loss {final:.6f}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    out = _resolve_out(cfg, args)
    ds = cfg.source.load()
    _, _, novel_view = cfg.views(ds)
    factory = cfg.network_factory(ds)
    for seed in _seeds(cfg, args):
        ckpt_path = out / f"ckpt_seed{seed}.fsml"
        meta_path = out / f"ckpt_seed{seed}.meta.json"
        params = load_checkpoint(ckpt_path)
        sidecar = json.loads(meta_path.read_text()) if meta_path.exists() else {}
        if not args.force:
            if not meta_path.exists():
                raise ConfigurationError(
                    f"{meta_path.name} is missing, so the architecture of {ckpt_path.name} "
                    f"cannot be checked; pass --force to evaluate anyway"
                )
            recorded = sidecar.get("arch_hash", "")
            expected = factory.arch_hash(cfg.regime)
            if recorded != expected:
                raise ConfigurationError(
                    f"{ckpt_path.name} records architecture {recorded[:12]} but the eval "
                    f"config builds {expected[:12]}; pass --force to evaluate anyway"
                )
        trained_on, here = sidecar.get("openblas_corename"), blas_build()["openblas_corename"]
        if trained_on and trained_on != here:
            log.warning("%s was trained on the OpenBLAS %s kernel and is evaluated on %s; "
                        "GEMM results, and so the report, can differ in their last bits",
                        ckpt_path.name, trained_on, here or "another BLAS")
        net, partition = factory(cfg.regime, seed)
        apply_checkpoint(net, params)
        state = KnowledgeState(network=net, partition=partition, loss=cfg.train.loss,
                               task_l2=cfg.train.task_l2, meta_dropout=cfg.train.meta_dropout,
                               seed=seed)
        report = evaluate_fewshot(state, novel_view, cfg.episode, cfg.meta_test,
                                  n_episodes=cfg.meta_test.Q, seed=seed,
                                  config_hash=cfg.config_hash, jobs=args.jobs)
        print(report.summary())
        _atomic_write(out / f"eval_seed{seed}.json", report.to_json().encode())
    return 0


def cmd_ablate(args) -> int:
    cfg = load_config(args.config)
    out = _resolve_out(cfg, args)
    ds = cfg.source.load()
    base_view, _, novel_view = cfg.views(ds)
    assets = AblationAssets(
        base_view=base_view,
        novel_view=novel_view,
        build_net=cfg.network_factory(ds),
        train_cfg=cfg.train,
        mtest_cfg=cfg.meta_test,
        espec=cfg.episode,
        config_hash=cfg.config_hash,
    )
    rows = run_ablation(cfg.ablation, assets, _seeds(cfg, args), jobs=args.jobs)
    csv_path = out / "ablation.csv"
    _atomic_write(csv_path, lambda tmp: write_ablation_csv(rows, tmp))
    failed = [r for r in rows if r.report is None]
    for row in failed:
        log.error("cell %s seed %d failed: %s", row.cell, row.seed, row.error)
    print(f"ablation: {len(rows)} runs, {len(failed)} failed, table at {csv_path}")
    return 0


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    if cfg.source.synthetic is None:
        raise ConfigurationError("gen-data requires config.dataset.synthetic")
    out = _resolve_out(cfg, args)
    ds = gen_synthetic(cfg.source.synthetic)
    path = out / "dataset.fsds"
    _atomic_write(path, lambda tmp: write_dataset(ds, tmp))
    print(f"wrote {path}: {ds.n_classes} classes, {ds.n_samples} samples")
    return 0


def cmd_oracle_check(args) -> int:
    results = run_all_gates()
    for result in results:
        print(result.line())
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# argument parsing


def _seed_value(text: str) -> int:
    try:
        return check_seed(int(text))
    except ConfigurationError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _jobs_value(text: str) -> int:
    value = int(text)
    limit = os.cpu_count() or 1
    if not (1 <= value <= limit):
        raise argparse.ArgumentTypeError(f"jobs must lie in 1..{limit} (the CPU count), got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fsml", description="few-shot meta-learning experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--config": dict(required=True, help="experiment config (JSON)"),
        "--seed": dict(type=_seed_value, default=None, help="single seed overriding the config's seed list"),
        "--out": dict(default=None, help="output directory (overrides config.out)"),
        "--jobs": dict(type=_jobs_value, default=1, help="worker processes for episode stacks/cells"),
        "--force": dict(action="store_true", help="skip the architecture-hash guard"),
    }
    # each subcommand takes only the flags it reads
    for name, fn, text, names in (
        ("train", cmd_train, "run the configured training regime", ("--config", "--seed", "--out")),
        ("eval", cmd_eval, "evaluate checkpoints on the novel split",
         ("--config", "--seed", "--out", "--jobs", "--force")),
        ("ablate", cmd_ablate, "train and evaluate the regularizer ablation grid",
         ("--config", "--seed", "--out", "--jobs")),
        ("gen-data", cmd_gen_data, "write the configured synthetic dataset", ("--config", "--out")),
        ("oracle-check", cmd_oracle_check, "run the analytic-vs-numeric verification gates", ()),
    ):
        sp = sub.add_parser(name, help=text)
        for flag in names:
            sp.add_argument(flag, **flags[flag])
        sp.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _setup_logging()
        return args.fn(args)
    except FsmlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
