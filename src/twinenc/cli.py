"""Command-line surface: train, fine-tune, encode, index, search, evaluate.

Subcommands: distill, finetune, encode-corpus, build-index, search, score,
eval-auc, eval-ndcg, bench, gen-synthetic. Every command is deterministic
given its seed and inputs. Settings are command-line flags over built-in
defaults, and each command takes only the flags it reads. Only gen-synthetic,
distill, finetune and bench draw random numbers, so only they take ``--seed``.

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
import functools
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
from .metrics import LABEL_SCALE, binary_label, label_gain, mean_ndcg, roc_auc
from .model import SERVE_BATCH, SERVING_DTYPE, TwinModel
from .synthetic import HOLDOUT_FRACTION, generate_pairs, split_pairs
from .text import ENCODABLE, encodable
from .training import (PairRecord, TrainingDivergedError, distill_train, finetune, first_lacking,
                       load_pair_tsv, pair_tsv_rows)

# not __name__: under ``python -m twinenc.cli`` that is ``__main__``, outside the package logger
logger = logging.getLogger("twinenc.cli")


def _require_file(path: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise ValueError(f"input file not found: {path}")
    return p


def _int_list(flag: str, text: str) -> list[int]:
    """The comma-separated integers of ``flag``'s value ``text``."""
    values = []
    for entry in text.split(","):
        try:
            values.append(int(entry))
        except ValueError:
            raise ValueError(f"{flag} {text!r}: {entry!r} is not an integer") from None
    return values


def _refuse_below(*checks: tuple[str, int, int]) -> None:
    """Refuse the first ``(flag, value, least)`` whose value is below its least."""
    for flag, value, least in checks:
        if value < least:
            raise ValueError(f"{flag} must be >= {least}, got {value}")


def _score(cell: str) -> float:
    """A score cell as a float; NaN ranks nowhere, so it is refused like text."""
    value = float(cell)
    if math.isnan(value):
        raise ValueError(cell)
    return value


def _add_model_flags(p: argparse.ArgumentParser) -> dict[str, str]:
    """Add the model flags to ``p``; returns each flag keyed by its ``args`` attribute."""
    g = p.add_argument_group("model")
    flags = [
        g.add_argument("--preset", choices=PRESETS, default=None,
                       help="architecture preset (default desk: L=2 H=64 A=2)"),
        g.add_argument("--layers", dest="n_layers", type=int, default=None),
        g.add_argument("--hidden-size", type=int, default=None),
        g.add_argument("--heads", dest="n_heads", type=int, default=None),
        g.add_argument("--ffn-size", type=int, default=None),
        g.add_argument("--vocab-buckets", type=int, default=None),
        g.add_argument("--max-len", type=int, default=None),
        g.add_argument("--pooling", choices=POOLING_MODES, default=None),
        g.add_argument("--crossing", choices=CROSSING_MODES, default=None),
        g.add_argument("--shared-encoders", action=argparse.BooleanOptionalAction, default=None),
        g.add_argument("--dropout", type=float, default=None),
        g.add_argument("--vocab-hash-seed", type=int, default=None),
    ]
    return {a.dest: a.option_strings[0] for a in flags}


def _add_training_flags(p: argparse.ArgumentParser):
    """``p``'s training group, holding the two flags both phases read; each command adds its
    own phase's."""
    g = p.add_argument_group("training")
    g.add_argument("--weight-decay", type=float, default=None)
    g.add_argument("--batch-size", type=int, default=None)
    return g


def _settings(args, cls):
    """The config of class ``cls`` that the command's flags set, its other fields at their
    defaults, checked by ``cls``: a ``ModelConfig`` is built at ``args``'s preset."""
    make = PRESETS[args.preset or "desk"] if cls is ModelConfig else cls
    try:
        return make(**{f.name: getattr(args, f.name) for f in dataclasses.fields(cls)
                       if getattr(args, f.name, None) is not None})
    except ValueError as exc:
        raise ValueError(f"invalid configuration: {exc}") from exc


def _resolve(args, **sections) -> dict:
    """The run's settings as its manifest records them, logged: each config of ``sections``
    (``model``, and ``distill`` where the command trains) as a dict, and ``--seed``."""
    resolved = {**{name: config.to_dict() for name, config in sections.items()}, "seed": args.seed}
    logger.info("resolved config: %s", json.dumps(resolved, sort_keys=True))
    return resolved


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
    _refuse_below(("--pairs", args.pairs, 1), ("--queries", args.queries, 1), ("--topics", args.topics, 2))
    out_dir = Path(args.out_dir)
    pairs = generate_pairs(
        n_pairs=args.pairs, seed=args.seed, n_queries=args.queries, n_topics=args.topics
    )
    train, test = split_pairs(pairs, n_queries=args.queries)

    resolved = {"pairs": args.pairs, "queries": args.queries, "topics": args.topics,
                "holdout": HOLDOUT_FRACTION, "seed": args.seed}
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
    if not records:  # before a model is built or loaded
        raise ValueError(f"{path}: no pairs")
    if (missing := first_lacking(records, field)) is not None:
        lineno = textio.read_table(path).rows[missing][0]
        raise ValueError(f"{path}:{lineno}: pair has no {field.replace('_', ' ')}")
    return records


def _train(command: str, phase, args, resolved: dict, distill: DistillationConfig, model: TwinModel,
           records, **extra) -> int:
    """Train ``model`` on ``records`` with ``phase`` (``distill_train`` or ``finetune``) at
    ``distill`` and save it to ``args.out`` with its run manifest."""
    t0 = time.perf_counter()
    history = phase(records, distill, model, seed=args.seed)
    model.save(args.out)
    textio.write_manifest(args.out, _manifest(
        command, resolved, format_version=FORMAT_VERSION,
        checkpoint_sha256=file_sha256(args.out), **extra,
        data=str(args.data), records=len(records),
        seed=args.seed, epoch_losses=history.epoch_losses,
        steps=history.steps, wall_seconds=time.perf_counter() - t0,
        calibration=None if history.calibration is None else dict(zip(("a", "b"), history.calibration)),
    ))
    logger.info("wrote checkpoint %s", args.out)
    return 0


def cmd_distill(args) -> int:
    config, distill = _settings(args, ModelConfig), _settings(args, DistillationConfig)
    resolved = _resolve(args, model=config, distill=distill)
    records = _training_pairs(args.data, "teacher_logits")
    return _train("distill", distill_train, args, resolved, distill,
                  TwinModel.initialize(config, seed=args.seed), records)


def cmd_finetune(args) -> int:
    distill = _settings(args, DistillationConfig)
    records = _training_pairs(args.data, "label")
    model = TwinModel.load(_require_file(args.checkpoint))
    resolved = _resolve(args, model=model.config, distill=distill)
    return _train("finetune", finetune, args, resolved, distill, model, records,
                  source_checkpoint=str(args.checkpoint),
                  finetune_learning_rate=distill.finetune_learning_rate)


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
    _refuse_below(("--degree", args.degree, 1), ("--build-beam", args.build_beam, 1))  # before the store is read
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
    _refuse_below(("--top-n", args.top_n, 1))
    if args.mode == "approx" and args.beam < args.top_n:
        raise ValueError(f"--beam must be >= --top-n in approx mode, got {args.beam} < {args.top_n}")
    model = TwinModel.load(_require_file(args.checkpoint)).cast(SERVING_DTYPE)
    index = index_mod.EmbeddingIndex.load(_require_file(args.index))
    if args.mode == "approx" and index.graph is None:
        raise ValueError(f"index {args.index} has no graph; use --mode exact or build-index")
    source = args.queries if args.queries == "-" else _require_file(args.queries)
    name = "<stdin>" if args.queries == "-" else args.queries
    queries = []
    for lineno, line in textio.lines(source):
        if query := line.strip():
            if "\t" in query or query[0] == "#":  # its rows would not read back
                raise ValueError(f"{name}:{lineno}: query {query!r} holds a tab or starts with '#'")
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
    table = textio.read_table(_require_file(args.pairs))
    if "prob" in table.header:  # a second prob column would go unread by eval-auc and eval-ndcg
        raise ValueError(f"{args.pairs}: already has a prob column; score a table without one")
    if "label" in table.header:  # else the table written fails eval-auc, one command late
        table.column("label", lambda cell: cell and binary_label(cell), LABEL_SCALE)
    model = TwinModel.load(_require_file(args.checkpoint)).cast(SERVING_DTYPE)
    queries, keywords = (table.column(name, encodable, ENCODABLE) for name in ("query", "keyword"))
    head = args.head or model.config.crossing
    probs = model.score_pairs(queries, keywords, head=head)
    rows = [cells + [f"{float(p):.10f}"] for (_, cells), p in zip(table.rows, probs)]
    _emit(args.out, [table.header + ["prob"], *rows],
          _manifest("score", {"head": head}, checkpoint_sha256=file_sha256(args.checkpoint)))
    return 0


def cmd_eval_auc(args) -> int:
    table = textio.read_table(_require_file(args.scored))
    scores = table.column("prob", _score, "a number")
    labels = table.column("label", binary_label, LABEL_SCALE)
    try:
        auc = roc_auc(scores, labels)
    except ValueError as exc:
        raise ValueError(f"{args.scored}: {exc}") from None
    _emit(args.out, [("metric", "value"), ("roc_auc", f"{auc:.10f}")],
          _manifest("eval-auc", {}))
    return 0


def cmd_eval_ndcg(args) -> int:
    positions = _int_list("--positions", args.positions)
    if (least := min(positions)) < 1:  # before the table is read, as bench checks --nk-grid
        raise ValueError(f"--positions {args.positions!r}: position must be >= 1, got {least}")
    table = textio.read_table(_require_file(args.scored))
    scores = table.column("prob", _score, "a number")
    gains = table.column("label", label_gain, LABEL_SCALE)
    by_query: dict[str, list[tuple[float, float]]] = {}
    for query, score, gain in zip(table.column("query"), scores, gains):
        by_query.setdefault(query, []).append((score, gain))
    rankings = []
    for items in by_query.values():
        items.sort(key=lambda t: -t[0])
        rankings.append([gain for _, gain in items])
    rows = [("position", "ndcg")]
    try:
        for p in positions:
            rows.append((str(p), f"{mean_ndcg(rankings, p):.6f}"))
    except ValueError as exc:
        raise ValueError(f"{args.scored}: {exc}") from None
    _emit(args.out, rows, _manifest("eval-ndcg", {"positions": positions}))
    return 0


def cmd_bench(args) -> int:
    nk_grid = _int_list("--nk-grid", args.nk_grid)
    try:
        bench_mod.check_nk_grid(nk_grid)
    except ValueError as exc:
        raise ValueError(f"--nk-grid {args.nk_grid!r}: {exc}") from None
    _refuse_below(("--n-queries", args.n_queries, 1), ("--reps", args.reps, 1), ("--qel", args.qel, 1),
                  ("--warmup", args.warmup, 0))
    if args.checkpoint is not None:
        for dest, flag in args.model_flags.items():
            if getattr(args, dest) is not None:
                raise ValueError(f"{flag} cannot be given with --checkpoint, whose header sets the model")
    modes = [mode.strip() for mode in args.modes.split(",")]
    for i, mode in enumerate(modes):
        if mode in modes[:i]:  # its rows would share one entry of the manifest's fits
            raise ValueError(f"--modes: {mode!r} repeats")
    try:
        scenarios = [bench_mod.LatencyScenario(mode, qel=args.qel, keyword_cache=not args.no_cache,
                                               n_queries=args.n_queries, repetitions=args.reps)
                     for mode in modes]
    except ValueError as exc:
        raise ValueError(f"--modes: {exc}") from None
    loaded = TwinModel.load(_require_file(args.checkpoint)) if args.checkpoint else None
    config = loaded.config if loaded else _settings(args, ModelConfig)
    resolved = _resolve(args, model=config)
    model = loaded or TwinModel.initialize(config, seed=args.seed)

    rows, fits = [], {}
    for scenario in scenarios:
        reports, fits[scenario.model_mode] = bench_mod.bench_grid(
            scenario, model, nk_grid, warmup=args.warmup, seed=args.seed)
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
    # no parser reads an abbreviated flag: "--out" must not mean "--out-dir", and a
    # flag added later must not change what an abbreviation means
    parser = argparse.ArgumentParser(
        prog="twinenc",
        description="Twin-encoder retrieval: distillation training, indexing, search, benchmarks.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)
    common = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    common.add_argument("--quiet", action="store_true", help="show warnings and errors only")
    seeded = argparse.ArgumentParser(add_help=False, parents=[common], allow_abbrev=False)
    seeded.add_argument("--seed", type=int, default=0)

    p = add_command("gen-synthetic", parents=[seeded],
                    help=f"generate a synthetic labeled corpus; the last {HOLDOUT_FRACTION:.0%}% "
                         "of query slots are held out")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pairs", type=int, default=5000)
    p.add_argument("--queries", type=int, default=500)
    p.add_argument("--topics", type=int, default=20)
    p.set_defaults(func=cmd_gen_synthetic)

    p = add_command("distill", parents=[seeded], help="train a student model from teacher logits")
    _add_model_flags(p)
    g = _add_training_flags(p)
    g.add_argument("--temperature", type=float, default=None, help="softens the teacher logits")
    g.add_argument("--lr", dest="learning_rate", type=float, default=None, help="distillation learning rate")
    g.add_argument("--epochs", type=int, default=None, help="distillation epochs")
    p.add_argument("--data", required=True, help="pair TSV with teacher logits")
    p.add_argument("--out", required=True, help="output checkpoint path")
    p.set_defaults(func=cmd_distill)

    p = add_command("finetune", parents=[seeded], help="fine-tune a distilled model on hard labels")
    g = _add_training_flags(p)
    g.add_argument("--finetune-lr", dest="finetune_learning_rate", type=float, default=None,
                   help="fine-tuning learning rate")
    g.add_argument("--finetune-epochs", type=int, default=None, help="fine-tuning epochs")
    p.add_argument("--data", required=True, help="pair TSV with labels")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = add_command("encode-corpus", parents=[common],
                    help="encode keywords into an embedding store")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True, help="TSV id<TAB>keyword, or one keyword per line")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode_corpus)

    p = add_command("build-index", parents=[common],
                    help="attach a proximity graph to an embedding store")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--degree", type=int, default=16)
    p.add_argument("--build-beam", type=int, default=64, help="exact candidates per node")
    p.set_defaults(func=cmd_build_index)

    p = add_command("search", parents=[common], help="retrieve nearest keywords for queries")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--index", required=True)
    p.add_argument("--queries", required=True, help="query file, or - for stdin")
    p.add_argument("--top-n", type=int, default=5)
    p.add_argument("--beam", type=int, default=64)
    p.add_argument("--mode", choices=("approx", "exact"), default="approx")
    p.add_argument("--out", default=None, help="output TSV (default stdout)")
    p.set_defaults(func=cmd_search)

    p = add_command("score", parents=[common], help="score explicit (query, keyword) pairs")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--pairs", required=True, help="TSV with query and keyword columns")
    p.add_argument("--head", choices=CROSSING_MODES, default=None,
                   help="crossing head (default: the checkpoint's)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_score)

    p = add_command("eval-auc", parents=[common], help="ROC-AUC of score's table: prob against label")
    p.add_argument("--scored", required=True, help="TSV as score writes it, with label and prob columns")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_auc)

    p = add_command("eval-ndcg", parents=[common],
                    help="nDCG of score's table per query, linear grade gain, per position")
    p.add_argument("--scored", required=True,
                   help="TSV as score writes it, with query, label and prob columns")
    p.add_argument("--positions", default="1,2,3,4,5")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval_ndcg)

    p = add_command("bench", parents=[seeded], help="latency scenarios and complexity fits")
    model_flags = _add_model_flags(p)
    p.add_argument("--checkpoint", default=None,
                   help="model to time (default: randomly initialized from the model flags, "
                        "which a checkpoint refuses)")
    p.add_argument("--modes", default="twin_cosine,twin_residual,cross_encoder")
    p.add_argument("--nk-grid", default="25,50,100")
    p.add_argument("--n-queries", type=int, default=50)
    p.add_argument("--reps", type=int, default=3)
    p.add_argument("--qel", type=int, default=1)
    p.add_argument("--no-cache", action="store_true", help="encode keywords at query time")
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench, model_flags=model_flags)

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
        if not 0 <= getattr(args, "seed", 0) < 2**63:  # checked before any file is read
            raise ValueError(f"--seed must be in [0, 2**63), got {args.seed}")
        return args.func(args)
    except (ValueError, OSError, TrainingDivergedError) as exc:
        logger.error("error: %s", exc)
        return 1
    finally:
        package.removeHandler(handler)
        package.setLevel(level)
        package.propagate = propagate


if __name__ == "__main__":
    sys.exit(main())
