"""Command-line surface: train, fine-tune, encode, index, search, evaluate.

Subcommands: distill, finetune, encode-corpus, build-index, search, score,
eval-auc, eval-ndcg, bench, gen-synthetic. Every command is deterministic
given its seed and inputs. Settings resolve in three layers: built-in
defaults, then command-line flags, then the JSON config file (the file has
the last word). Only gen-synthetic, distill, finetune and bench read
settings, so only they take ``--config`` and ``--seed``.

Data goes to stdout or to files: a command whose result is a table writes it
once, to stdout or with ``--out`` to that file. Diagnostics (the resolved
configuration, status lines, warnings and errors) go through ``logging`` to
stderr.
``--quiet``, on every command, shows warnings and errors only.

Pair data is TSV everywhere; checkpoints and indices are binary. Text is
read and written through ``textio``, so malformed text fails naming its
``path:line``. File outputs get a ``<path>.manifest.json`` sidecar, and TSV
outputs carry a leading ``# manifest: ...`` comment with the config hash and
checkpoint hash. The manifest of a binary output also carries the format
version of the file it describes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from . import index as index_mod
from . import textio
from .checkpoint import FORMAT_VERSION, config_hash, file_sha256
from .config import CROSSING_MODES, PRESETS, DistillationConfig, ModelConfig, POOLING_MODES
from .metrics import binary_label, label_gain, mean_ndcg, roc_auc
from .model import SERVE_BATCH, SERVING_DTYPE, TwinModel
from .synthetic import generate_pairs, split_pairs
from .text import ENCODABLE, encodable
from .training import (PairRecord, TrainingDivergedError, distill_train, finetune, first_lacking,
                       load_pair_tsv, pair_tsv_rows)

# not __name__: under ``python -m twinenc.cli`` that is ``__main__``, outside the package logger
logger = logging.getLogger("twinenc.cli")


class CliError(Exception):
    """User-facing command failure; message logged as an error, exit 1."""


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"input file not found: {path}")
    return p


def _int_list(flag: str, text: str) -> list[int]:
    """The comma-separated integers of ``flag``'s value ``text``."""
    values = []
    for entry in text.split(","):
        try:
            values.append(int(entry))
        except ValueError:
            raise CliError(f"{flag} {text!r}: {entry!r} is not an integer") from None
    return values


def _score(cell: str) -> float:
    """A score cell as a float; NaN ranks nowhere, so it is refused like text."""
    value = float(cell)
    if math.isnan(value):
        raise ValueError(cell)
    return value


def _load_config_file(args) -> dict:
    """The config file's settings, ``{}`` without ``--config``, with ``seed`` set to the
    run's: the file's, else ``--seed``'s, else 0. The seed is checked here, so a seeded
    command reads no other file when it is outside [0, 2**63); the error names its source."""
    path = args.config
    try:
        raw = {} if path is None else json.loads(textio.read_text(_require_file(path)))
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}:{exc.lineno}: config file is not valid JSON: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise CliError(f"config file {path} must hold a JSON object")
    source = f"config file {path}: 'seed'" if "seed" in raw else "--seed"
    seed = raw.setdefault("seed", 0 if args.seed is None else args.seed)
    if type(seed) is not int:
        raise CliError(f"{source} must be an integer, got {seed!r}")
    if not 0 <= seed < 2**63:
        raise CliError(f"{source} must be in [0, 2**63), got {seed}")
    for key in ("model", "distill"):
        if not isinstance(raw.get(key, {}), dict):
            raise CliError(f"config file {path}: {key!r} must be a JSON object")
    for key in sorted(raw.keys() - {"preset", "model", "distill", "seed"}):  # the first one fails
        owner = [s for s, cls in (("model", ModelConfig), ("distill", DistillationConfig))
                 if key in {f.name for f in dataclasses.fields(cls)}]
        where = (f'belongs inside its "{owner[0]}" object' if owner
                 else "is unknown; the sections are preset, model, distill and seed")
        raise CliError(f"config file {path}: {key!r} {where}")
    if raw.get("preset", "desk") not in tuple(PRESETS):  # a tuple: a JSON list is unhashable
        raise CliError(f"config file {path}: 'preset' must be one of {tuple(PRESETS)}")
    return raw


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("model")
    g.add_argument("--preset", choices=PRESETS, default=None,
                   help="architecture preset (default desk: L=2 H=64 A=2)")
    g.add_argument("--layers", dest="n_layers", type=int, default=None)
    g.add_argument("--hidden-size", type=int, default=None)
    g.add_argument("--heads", dest="n_heads", type=int, default=None)
    g.add_argument("--ffn-size", type=int, default=None)
    g.add_argument("--vocab-buckets", type=int, default=None)
    g.add_argument("--max-len", type=int, default=None)
    g.add_argument("--pooling", choices=POOLING_MODES, default=None)
    g.add_argument("--crossing", choices=CROSSING_MODES, default=None)
    g.add_argument("--shared-encoders", action=argparse.BooleanOptionalAction, default=None)
    g.add_argument("--dropout", type=float, default=None)
    g.add_argument("--vocab-hash-seed", type=int, default=None)


def _add_distill_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("training")
    g.add_argument("--temperature", type=float, default=None)
    g.add_argument("--lr", dest="learning_rate", type=float, default=None)
    g.add_argument("--weight-decay", type=float, default=None)
    g.add_argument("--epochs", type=int, default=None)
    g.add_argument("--batch-size", type=int, default=None)
    g.add_argument("--finetune-lr", dest="finetune_learning_rate", type=float, default=None)
    g.add_argument("--finetune-epochs", type=int, default=None)


def _config_kwargs(cls, args, file_section: dict) -> dict:
    """Fields of config class ``cls``: the flags given in ``args``, then the file's section."""
    kwargs = {f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
              if getattr(args, f.name, None) is not None}
    return {**kwargs, **file_section}


def _resolve(args, file_cfg: dict, model: TwinModel | None = None) -> dict:
    """Merge defaults <- flags <- config file into one resolved dict, and log it.
    ``file_cfg`` is as ``_load_config_file`` returns it, holding the checked seed.
    A loaded ``model``'s config replaces the resolved one."""
    try:
        config = PRESETS[file_cfg.get("preset", getattr(args, "preset", None)) or "desk"](
            **_config_kwargs(ModelConfig, args, file_cfg.get("model", {})))
        distill = DistillationConfig(
            **_config_kwargs(DistillationConfig, args, file_cfg.get("distill", {})))
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid configuration: {exc}") from exc
    resolved = {
        "model": config.to_dict(),
        "distill": distill.to_dict(),
        "seed": file_cfg.get("seed", 0),
    }
    if model is not None:
        resolved["model"] = model.config.to_dict()
    logger.info("resolved config: %s", json.dumps(resolved, sort_keys=True))
    return resolved


def _build_model(resolved: dict) -> TwinModel:
    return TwinModel.initialize(ModelConfig.from_dict(resolved["model"]), seed=resolved["seed"])


def _manifest(command: str, resolved: dict, **extra) -> dict:
    payload = {
        "command": command,
        "config": resolved,
        "config_sha256": config_hash(resolved),
    }
    payload.update(extra)
    return payload


def _emit(path: str | Path | None, rows, manifest: dict) -> None:
    """Write a TSV output led by its manifest minus the config; a file output
    also gets the whole manifest as its sidecar."""
    slim = {k: v for k, v in manifest.items() if k != "config"}
    textio.write_tsv(path, rows, manifest=slim, sidecar=manifest)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_synthetic(args) -> int:
    seed = _load_config_file(args)["seed"]
    out_dir = Path(args.out_dir)

    pairs = generate_pairs(
        n_pairs=args.pairs, seed=seed, n_queries=args.queries, n_topics=args.topics
    )
    train, test = split_pairs(pairs, n_queries=args.queries, holdout_fraction=args.holdout)

    resolved = {"pairs": args.pairs, "queries": args.queries, "topics": args.topics,
                "holdout": args.holdout, "seed": seed}
    manifest = _manifest("gen-synthetic", resolved)
    _emit(out_dir / "train.tsv", pair_tsv_rows(train), manifest)
    _emit(out_dir / "test.tsv", pair_tsv_rows(test), manifest)

    keywords = list(dict.fromkeys(p.keyword for p in pairs))
    _emit(out_dir / "corpus.tsv",
          [("id", "keyword"), *zip(textio.keyword_ids(len(keywords)), keywords)], manifest)

    queries = list(dict.fromkeys(p.query for p in test))
    textio.write_tsv(out_dir / "queries.txt", ([q] for q in queries))
    logger.info("wrote %d train / %d test pairs, %d corpus keywords, %d queries to %s",
                len(train), len(test), len(keywords), len(queries), out_dir)
    return 0


def _training_pairs(path: str, field: str) -> list[PairRecord]:
    """The pair TSV at ``path``; the first record without ``field``, what its phase trains
    on, fails as ``path:line``, read back here: ``load_pair_tsv`` skips no row."""
    records = load_pair_tsv(_require_file(path))
    if (missing := first_lacking(records, field)) is not None:
        lineno = textio.read_table(path, last_optional=True).rows[missing][0]
        raise CliError(f"{path}:{lineno}: pair has no {field.replace('_', ' ')}")
    return records


def _train(command: str, phase, args, resolved: dict, model: TwinModel, records, **extra) -> int:
    """Train ``model`` on ``records`` with ``phase`` (``distill_train`` or ``finetune``)
    and save it to ``args.out`` with its run manifest."""
    t0 = time.perf_counter()
    history = phase(records, DistillationConfig.from_dict(resolved["distill"]), model,
                    seed=resolved["seed"])
    model.save(args.out)
    textio.write_manifest(args.out, _manifest(
        command, resolved, format_version=FORMAT_VERSION,
        checkpoint_sha256=file_sha256(args.out), **extra,
        data=str(args.data), records=len(records),
        seed=resolved["seed"], epoch_losses=history.epoch_losses,
        steps=history.steps, wall_seconds=time.perf_counter() - t0,
        calibration=None if history.calibration is None else dict(zip(("a", "b"), history.calibration)),
    ))
    logger.info("wrote checkpoint %s", args.out)
    return 0


def cmd_distill(args) -> int:
    resolved = _resolve(args, _load_config_file(args))
    records = _training_pairs(args.data, "teacher_logits")
    return _train("distill", distill_train, args, resolved, _build_model(resolved), records)


def cmd_finetune(args) -> int:
    file_cfg = _load_config_file(args)
    records = _training_pairs(args.data, "label")
    model = TwinModel.load(_require_file(args.checkpoint))
    resolved = _resolve(args, file_cfg, model)
    return _train("finetune", finetune, args, resolved, model, records,
                  source_checkpoint=str(args.checkpoint),
                  finetune_learning_rate=resolved["distill"]["finetune_learning_rate"])


def cmd_encode_corpus(args) -> int:
    model = TwinModel.load(_require_file(args.checkpoint)).cast(SERVING_DTYPE)
    ids, texts = textio.read_corpus(_require_file(args.corpus))
    store = index_mod.encode_corpus(texts, model, ids=ids)
    store.save(args.out)
    resolved = {"model": model.config.to_dict()}
    textio.write_manifest(args.out, _manifest(
        "encode-corpus", resolved, format_version=index_mod.INDEX_FORMAT_VERSION,
        checkpoint_sha256=file_sha256(args.checkpoint),
        index_sha256=file_sha256(args.out),
        corpus=str(args.corpus), keywords=len(store),
    ))
    logger.info("encoded %d keywords into %s", len(store), args.out)
    return 0


def cmd_build_index(args) -> int:
    store = index_mod.EmbeddingIndex.load(_require_file(args.embeddings))
    index_mod.build_graph(store, degree_bound=args.degree, build_beam=args.build_beam)
    store.save(args.out)
    resolved = {"degree_bound": args.degree, "build_beam": args.build_beam}
    textio.write_manifest(args.out, _manifest(
        "build-index", resolved, format_version=index_mod.INDEX_FORMAT_VERSION,
        index_sha256=file_sha256(args.out),
        embeddings=str(args.embeddings), keywords=len(store),
    ))
    logger.info("built graph index over %d keywords into %s", len(store), args.out)
    return 0


def cmd_search(args) -> int:
    if args.top_n < 1:
        raise CliError(f"--top-n must be >= 1, got {args.top_n}")
    if args.mode == "approx" and args.beam < args.top_n:
        raise CliError(f"--beam must be >= --top-n in approx mode, got {args.beam} < {args.top_n}")
    model = TwinModel.load(_require_file(args.checkpoint)).cast(SERVING_DTYPE)
    index = index_mod.EmbeddingIndex.load(_require_file(args.index))
    if args.mode == "approx" and index.graph is None:
        raise CliError(f"index {args.index} has no graph; use --mode exact or build-index")
    source = args.queries if args.queries == "-" else _require_file(args.queries)
    queries = []
    for _, line in textio.lines(source):
        if query := line.strip():
            try:
                queries.append(encodable(query))
            except ValueError:
                logger.warning("skipping unencodable query: %r", query)
    manifest = _manifest("search", {"top_n": args.top_n, "mode": args.mode, "beam": args.beam},
                         checkpoint_sha256=file_sha256(args.checkpoint),
                         index_sha256=file_sha256(args.index))

    def rows():
        yield "query", "rank", "keyword_id", "cosine_score"
        for lo in range(0, len(queries), SERVE_BATCH):
            chunk = queries[lo : lo + SERVE_BATCH]
            q_embs = model.encode_queries(chunk)
            for query, q_unit in zip(chunk, q_embs / np.linalg.norm(q_embs, axis=1, keepdims=True)):
                if args.mode == "exact":
                    results = index_mod.knn_exact(q_unit, index, args.top_n)
                else:
                    results = index_mod.knn_approx(q_unit, index, args.top_n, search_beam=args.beam)
                for r in results:
                    yield query, str(r.rank), r.keyword_id, f"{r.cosine_score:.6f}"

    _emit(args.out, rows(), manifest)
    return 0


def cmd_score(args) -> int:
    model = TwinModel.load(_require_file(args.checkpoint)).cast(SERVING_DTYPE)
    # a pair TSV may leave out its trailing label, as distill and finetune allow
    table = textio.read_table(_require_file(args.pairs), last_optional="label")
    queries, keywords = (table.column(name, encodable, ENCODABLE) for name in ("query", "keyword"))
    head = args.head or model.config.crossing
    probs = model.score_pairs(queries, keywords, head=head)
    rows = [cells + [f"{float(p):.10f}"] for (_, cells), p in zip(table.rows, probs)]
    _emit(args.out, [table.header + ["prob"], *rows],
          _manifest("score", {"head": head}, checkpoint_sha256=file_sha256(args.checkpoint)))
    return 0


def cmd_eval_auc(args) -> int:
    table = textio.read_table(_require_file(args.scored))
    scores = table.column(args.score_col, _score, "a number")
    labels = table.column(args.label_col, binary_label, "bad/fair/good/excellent or 0/1")
    try:
        auc = roc_auc(scores, labels)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _emit(args.out, [("metric", "value"), ("roc_auc", f"{auc:.10f}")],
          _manifest("eval-auc", {"score_col": args.score_col, "label_col": args.label_col}))
    return 0


def cmd_eval_ndcg(args) -> int:
    positions = _int_list("--positions", args.positions)
    table = textio.read_table(_require_file(args.scored))
    scores = table.column(args.score_col, _score, "a number")
    grades = table.column(args.label_col, label_gain, "bad/fair/good/excellent or 0/1")
    by_query: dict[str, list[tuple[float, float]]] = {}
    for query, score, grade in zip(table.column(args.query_col), scores, grades):
        by_query.setdefault(query, []).append((score, grade))
    rankings = []
    for items in by_query.values():
        items.sort(key=lambda t: -t[0])
        rankings.append([lab for _, lab in items])
    rows = [("position", "ndcg")]
    for p in positions:
        try:
            rows.append((str(p), f"{mean_ndcg(rankings, p, gain=args.gain):.6f}"))
        except ValueError as exc:
            raise CliError(str(exc)) from exc
    _emit(args.out, rows, _manifest("eval-ndcg", {"gain": args.gain, "positions": positions}))
    return 0


def cmd_bench(args) -> int:
    nk_grid = _int_list("--nk-grid", args.nk_grid)
    try:
        bench_mod.check_nk_grid(nk_grid)
    except ValueError as exc:
        raise CliError(f"--nk-grid {args.nk_grid!r}: {exc}") from None
    for flag, value, least in (("--n-queries", args.n_queries, 1), ("--reps", args.reps, 1),
                               ("--qel", args.qel, 1), ("--warmup", args.warmup, 0)):
        if value < least:
            raise CliError(f"{flag} must be >= {least}, got {value}")
    modes = [mode.strip() for mode in args.modes.split(",")]
    for i, mode in enumerate(modes):
        if mode in modes[:i]:  # its rows would share one entry of the manifest's fits
            raise CliError(f"--modes: {mode!r} repeats")
    try:
        scenarios = [bench_mod.LatencyScenario(mode, qel=args.qel, keyword_cache=not args.no_cache,
                                               n_queries=args.n_queries, repetitions=args.reps)
                     for mode in modes]
    except ValueError as exc:
        raise CliError(f"--modes: {exc}") from None
    file_cfg = _load_config_file(args)
    loaded = TwinModel.load(_require_file(args.checkpoint)) if args.checkpoint else None
    resolved = _resolve(args, file_cfg, loaded)
    model = loaded or _build_model(resolved)

    rows, fits = [], {}
    for scenario in scenarios:
        reports, fits[scenario.model_mode] = bench_mod.bench_grid(
            scenario, model, nk_grid, warmup=args.warmup, seed=resolved["seed"])
        rows.extend(r.as_dict() for r in reports)
    keys = sorted(rows[0])  # every row has the same keys
    _emit(args.out, [keys, *([str(row[k]) for k in keys] for row in rows)],
          _manifest("bench", resolved,
                    fits={mode: dataclasses.asdict(fit) for mode, fit in fits.items()}))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twinenc",
        description="Twin-encoder retrieval: distillation training, indexing, search, benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--quiet", action="store_true", help="show warnings and errors only")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--config", default=None, help="JSON config file; overrides flags")
    seeded.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gen-synthetic", parents=[seeded], help="generate a synthetic labeled corpus")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pairs", type=int, default=5000)
    p.add_argument("--queries", type=int, default=500)
    p.add_argument("--topics", type=int, default=20)
    p.add_argument("--holdout", type=float, default=0.2)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("distill", parents=[seeded], help="train a student model from teacher logits")
    _add_model_flags(p)
    _add_distill_flags(p)
    p.add_argument("--data", required=True, help="pair TSV with teacher logits")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("finetune", parents=[seeded], help="fine-tune a distilled model on hard labels")
    _add_distill_flags(p)
    p.add_argument("--data", required=True, help="pair TSV with labels")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("encode-corpus", parents=[common],
                       help="encode keywords into an embedding store")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True, help="TSV id<TAB>keyword, or one keyword per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode_corpus)

    p = sub.add_parser("build-index", parents=[common],
                       help="attach a proximity graph to an embedding store")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--degree", type=int, default=16)
    p.add_argument("--build-beam", type=int, default=64, help="exact candidates per node")
    p.set_defaults(func=cmd_build_index)

    p = sub.add_parser("search", parents=[common], help="retrieve nearest keywords for queries")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True, help="query file, or - for stdin")
    p.add_argument("--top-n", type=int, default=5)
    p.add_argument("--beam", type=int, default=64)
    p.add_argument("--mode", choices=("approx", "exact"), default="approx")
    p.add_argument("--out", default=None, help="output TSV (default stdout)")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("score", parents=[common], help="score explicit (query, keyword) pairs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", required=True, help="TSV with query and keyword columns")
    p.add_argument("--head", choices=CROSSING_MODES, default=None,
                   help="crossing head (default: the checkpoint's)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("eval-auc", parents=[common], help="ROC-AUC of a scored TSV")
    p.add_argument("--scored", required=True)
    p.add_argument("--score-col", default="prob")
    p.add_argument("--label-col", default="label")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_auc)

    p = sub.add_parser("eval-ndcg", parents=[common],
                       help="graded nDCG of a scored TSV, per position")
    p.add_argument("--scored", required=True)
    p.add_argument("--query-col", default="query")
    p.add_argument("--label-col", default="label")
    p.add_argument("--score-col", default="prob")
    p.add_argument("--positions", default="1,2,3,4,5")
    p.add_argument("--gain", choices=("linear", "exponential"), default="linear")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_ndcg)

    p = sub.add_parser("bench", parents=[seeded], help="latency scenarios and complexity fits")
    _add_model_flags(p)
    p.add_argument("--checkpoint", default=None,
                   help="model to time (default: randomly initialized from flags)")
    p.add_argument("--modes", default="twin_cosine,twin_residual,cross_encoder")
    p.add_argument("--nk-grid", default="25,50,100")
    p.add_argument("--n-queries", type=int, default=50)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--qel", type=int, default=1)
    p.add_argument("--no-cache", action="store_true", help="encode keywords at query time")
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # one handler per call, on the stream of this call: repeated in-process
    # calls neither repeat lines nor write to a stream that has been replaced,
    # and no line also reaches a handler the caller put on the root logger
    package = logging.getLogger("twinenc")
    handler, level, propagate = logging.StreamHandler(sys.stderr), package.level, package.propagate
    package.addHandler(handler)
    package.setLevel(logging.WARNING if args.quiet else logging.INFO)
    package.propagate = False
    try:
        return args.func(args)
    except (CliError, ValueError, OSError, TrainingDivergedError) as exc:
        logger.error("error: %s", exc)
        return 1
    finally:
        package.removeHandler(handler)
        package.setLevel(level)
        package.propagate = propagate


if __name__ == "__main__":
    sys.exit(main())
