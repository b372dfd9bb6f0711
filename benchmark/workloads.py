"""The benchmark's three workloads: rerank, search and train.

Each workload builds its inputs from the seed, times the work through the
library's public API from one closed-loop caller, checks the outputs, and
returns an :class:`Outcome`. The model is always the random-init desk
preset (``ModelConfig()`` defaults) with a fixed seed, so the workload seed
changes only the data. Serving runs in float32, training in float64.

Why these three:

- ``rerank`` is the paper's decoupled serving path: one query encoding at
  batch 1 plus a crossing head over K cached keyword embeddings. Encoder and
  crossing changes show here; the index and training code do no work.
- ``search`` builds a graph index over 10k keywords and serves approximate
  top-10 search from it, with exact search as the recall oracle. The index
  does most of the work, and the encoder runs batched for the corpus.
- ``train`` runs distillation at batch 64: encoder forward and backward and
  the AdamW step dominate, the index does nothing and crossing does little.
"""

from __future__ import annotations

import gc
import logging
import math
import resource
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from twinenc import (
    DistillationConfig,
    EmbeddingIndex,
    ModelConfig,
    PairRecord,
    TwinModel,
    build_graph,
    ce_loss,
    distill_train,
    encode_corpus,
    generate_pairs,
    knn_approx,
    knn_exact,
    soft_label,
)
from twinenc import encoder as encoder_mod
from twinenc import training as training_mod

import checks
from tracing import NULL_TRACER, Instrumentation, Tracer, crossing_slope_us, totals

logger = logging.getLogger("benchmark")

MODEL_SEED = 0
HEADS = ("residual", "cosine")
K_WEIGHTS = (2, 2, 1)  # relative frequency of each rerank K
SECONDS_PER_EPOCH = 6.5  # one 4000-pair epoch on the 2-core reference machine
TRACE_BLOCKS = 20  # traced runs alternate traced and untraced work in this many blocks


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; ``FULL`` is the benchmark, ``TOY`` the self-tests."""

    rerank_store: int = 2048
    rerank_requests: int = 1200
    rerank_ks: tuple[int, ...] = (100, 300, 1000)
    search_corpus: int = 10_000
    search_queries: int = 1000
    search_degree: int = 16
    search_build_beam: int = 64
    search_beam: int = 64
    top_n: int = 10
    train_pairs: int = 4000
    rerank_check_sample: int = 12
    exact_sample: int = 200
    warmup: int = 50
    setup_repeats: int = 2  # before the timed phases, and again after them


FULL = Sizes()
TOY = Sizes(
    rerank_store=96, rerank_requests=30, rerank_ks=(4, 8, 16),
    search_corpus=300, search_queries=24, search_degree=8, search_build_beam=16,
    search_beam=16, train_pairs=320, rerank_check_sample=3, exact_sample=8, warmup=4,
    setup_repeats=1,
)


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``end_to_end`` holds the metrics named in BENCHMARK.json; ``reported``
    holds the run's timings under the names of the design doc, with units,
    for people reading the output.
    """

    params: dict
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    reported: dict[str, tuple[float, str]] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    tracer: Tracer | None = None

    def record(self, ok: bool, what: str) -> None:
        """Count one operation or check; a failure keeps its description."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def record_all(self, problems: list[str], what: str) -> None:
        self.record(not problems, f"{what}: {'; '.join(problems[:3])}")


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far.

    Workloads read it when their timed work ends, before the correctness
    checks, whose own batches (a seeded sample) would otherwise set it.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def serving_model() -> TwinModel:
    return TwinModel.initialize(ModelConfig(), seed=MODEL_SEED).cast(np.float32)


def training_model() -> TwinModel:
    return TwinModel.initialize(ModelConfig(), seed=MODEL_SEED)


class Repeated:
    """Times a piece of fixed work each time it runs; reports the median.

    Workloads run it both before and after their timed phases, so the
    samples fall at different moments of the machine's speed, which drifts
    by tens of percent over seconds on a shared host.
    """

    def __init__(self, work):
        self.work = work
        self.durations: list[float] = []

    def repeat(self, times: int):
        """Run the work ``times`` times and return the last result."""
        result = None
        for _ in range(times):
            result = None
            gc.collect()
            t0 = perf_counter()
            result = self.work()
            self.durations.append(perf_counter() - t0)
        return result

    def median(self) -> float:
        return float(np.median(self.durations))


def pct_ms(times_s: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(times_s), q) * 1e3)


@dataclass
class LoopResult:
    times_s: list[float]
    wall_s: float
    sent: int
    first_pass: list


def closed_loop(ops, call, out: Outcome, validate, seconds: float | None,
                tracer=NULL_TRACER, attrs=None, first_id: int = 0) -> LoopResult:
    """One caller sends each op after the previous one returns.

    Cycles through ``ops`` until ``seconds`` have passed and at least one
    whole pass is done (exactly one pass when ``seconds`` is None). Each
    op's time covers only ``call``; its result is validated afterwards and
    kept for the first pass. Op ``i`` runs as request ``first_id + i``.
    """
    times: list[float] = []
    first_pass: list = []
    done = 0
    start = perf_counter()
    while True:
        i = done % len(ops)
        op = ops[i]
        try:
            t0 = perf_counter()
            with tracer.request(first_id + i, attrs(op) if attrs else None):
                result = call(op)
            times.append(perf_counter() - t0)
        except Exception:  # one failed request must not end the run
            logger.exception("operation %d failed", i)
            result = None
            out.record(False, f"operation {i} raised")
        else:
            out.record(validate(op, result), f"operation {i} returned an invalid result")
        if done < len(ops):
            first_pass.append(result)
        done += 1
        if done >= len(ops) and (seconds is None or perf_counter() - start >= seconds):
            break
    return LoopResult(times, perf_counter() - start, done, first_pass)


@dataclass
class TracedPasses:
    traced_s: list[float]
    untraced_s: list[float]
    first_span: int

    @property
    def overhead_ratio(self) -> float:
        return float(np.median(self.traced_s) / np.median(self.untraced_s))


def traced_passes(ops, call, traced_call, out: Outcome, validate, tracer: Tracer,
                  instrumentation: Instrumentation, attrs=None) -> TracedPasses:
    """Two passes over ``ops`` in blocks that alternate untraced and traced.

    The second pass swaps the order, so every op is traced once and untraced
    once, and each traced block runs next in time to an untraced one. The
    machine's speed drifts over seconds, so only neighbouring blocks give a
    fair tracing overhead.
    """
    block = max(1, len(ops) // TRACE_BLOCKS)
    result = TracedPasses([], [], len(tracer.spans))
    for p in range(2):
        for b, lo in enumerate(range(0, len(ops), block)):
            chunk = ops[lo : lo + block]
            if (b + p) % 2:
                with instrumentation:
                    loop = closed_loop(chunk, traced_call, out, validate, None, tracer, attrs,
                                       first_id=p * len(ops) + lo)
                result.traced_s += loop.times_s
            else:
                result.untraced_s += closed_loop(chunk, call, out, validate, None).times_s
    return result


def self_time_by_layer(spans, passes: TracedPasses) -> dict:
    """Where the traced time goes, per operation: self time summed by module.

    Covers the spans of the traced passes. The ``request`` entry is the
    benchmark's own glue around the calls. The entries add up to the mean
    traced operation time, printed beside the untraced one.
    """
    by_layer: dict[str, float] = {}
    for name, seconds in totals(spans, passes.first_span).self_s.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    ops = len(passes.traced_s)
    rows = {f"self_ms.{layer}": (t * 1e3 / ops, "ms") for layer, t in sorted(by_layer.items())}
    for label, times in (("traced", passes.traced_s), ("untraced", passes.untraced_s)):
        rows[f"{label}_mean_ms"] = (float(np.mean(times)) * 1e3, "ms")
        rows[f"{label}_p50_ms"] = (pct_ms(times, 50), "ms")
    return rows


def layer_metrics(spans, ops: int, *, counters: dict | None = None, train: bool = False,
                  search: dict | None = None, overhead_ratio: float) -> dict[str, float]:
    """Every per-layer metric from one traced phase; zero where a layer did no work.

    ``_ms`` metrics are self time per operation (request or training step),
    except ``index.query_encode_ms`` and the ``training.*`` phase times,
    which include the encoder and crossing spans inside them.
    """
    t = totals(spans)

    def per_op(seconds: float) -> float:
        return seconds * 1e3 / ops

    m = {
        "text.tokenize_ms": per_op(t.self_of("text.tokenize")),
        "encoder.pack_ms": per_op(t.self_of("encoder.pack")),
        "encoder.embed_ms": per_op(t.self_of("encoder.embed")),
    }
    for i in range(ModelConfig().n_layers):
        m[f"encoder.layer.{i}_ms"] = per_op(t.self_of(f"encoder.layer.{i}"))
    m.update({
        "encoder.pool_ms": per_op(t.self_of("encoder.pool")),
        "encoder.backward_ms": per_op(t.self_of("encoder.backward")),
        "encoder.real_row_ratio": t.real_rows / t.rows if t.rows else 0.0,
        "crossing.residual_ms": per_op(t.self_of("crossing.residual")),
        "crossing.cosine_ms": per_op(t.self_of("crossing.cosine")),
        "crossing.us_per_keyword": crossing_slope_us(spans),
    })
    counters = counters or {}
    for name in ("query_encoder_passes", "keyword_encoder_passes", "crossing_evals"):
        m[f"model.{name}"] = float(counters.get(name, 0))
    search = search or {}
    m.update({
        "index.query_encode_ms": per_op(t.inclusive_of("index.query_encode")),
        "index.knn_approx_ms": per_op(t.self_of("index.knn_approx")),
        "index.knn_exact_ms": search.get("knn_exact_ms", 0.0),
        "index.recall_at_10": search.get("recall_at_10", 0.0),
        "index.distance_computations_per_query": search.get("distance_computations_per_query", 0.0),
        "index.hops_per_query": search.get("hops_per_query", 0.0),
        "index.encode_corpus_s": t.inclusive_of("index.encode_corpus"),
        "index.build_graph_s": t.inclusive_of("index.build_graph"),
        "index.save_s": t.inclusive_of("index.save"),
        "index.load_s": t.inclusive_of("index.load"),
    })
    phase = per_op if train else (lambda seconds: 0.0)
    forward_s = t.inclusive_of("model.encode_query") + t.inclusive_of("model.encode_keyword")
    m.update({
        "training.forward_ms": phase(forward_s),
        "training.crossing_ms": phase(t.self_of("crossing.residual") + t.self_of("crossing.cosine")),
        "training.backward_ms": phase(t.inclusive_of("model.backward")),
        "training.optimizer_ms": phase(t.inclusive_of("training.optimizer")),
        "training.pack_ms": phase(t.self_of("encoder.pack")),
        "trace.overhead_ratio": overhead_ratio,
    })
    return m


# ---------------------------------------------------------------------------
# rerank
# ---------------------------------------------------------------------------

@dataclass
class RerankRequest:
    query: str
    keyword_rows: np.ndarray
    head: str


def rerank_inputs(seed: int, sizes: Sizes):
    """Model, keyword store texts, and requests with a fixed (K, head) mix.

    K takes its values in proportion 2:2:1 (so the median request is a
    K=300 cosine request, mid-way through its own cluster of times, instead
    of sitting on the gap between two clusters) and the two heads split each
    K evenly. The counts are exact and only their order is seeded, so every
    seed sees the same mix.
    """
    model = serving_model()
    n_req = sizes.rerank_requests
    pairs = generate_pairs(n_pairs=max(sizes.rerank_store, n_req), seed=seed, n_queries=n_req)
    store_texts = [p.keyword for p in pairs[: sizes.rerank_store]]
    combos = [(k, head) for k, weight in zip(sizes.rerank_ks, K_WEIGHTS)
              for head in HEADS for _ in range(weight)]
    if n_req % len(combos):
        raise ValueError(f"rerank_requests must be a multiple of {len(combos)}")
    rng = np.random.default_rng([seed, 0x5E5])
    mix = [combos[i] for i in rng.permutation(np.arange(n_req) % len(combos))]
    requests = [
        RerankRequest(pairs[i].query, rng.choice(sizes.rerank_store, size=k, replace=False), head)
        for i, (k, head) in enumerate(mix)
    ]
    return model, store_texts, requests


def rerank_request(model: TwinModel, cache: np.ndarray, req: RerankRequest) -> np.ndarray:
    """Query text to scores: tokenize, pack, encode at batch 1, cross with K cached rows."""
    batch = encoder_mod.pack_sequences([model.tokenize(req.query)])
    q_emb, _ = model.encode_query_batch(batch)
    k_emb = cache[req.keyword_rows]
    return model.score_embeddings(np.broadcast_to(q_emb[0], k_emb.shape), k_emb, head=req.head)


def _valid_scores(req: RerankRequest, probs) -> bool:
    return probs.shape == (len(req.keyword_rows),) and bool(np.all((probs >= 0) & (probs <= 1)))


def rerank(seed: int, seconds: float, traced: bool, sizes: Sizes = FULL) -> Outcome:
    setup = Repeated(lambda: rerank_inputs(seed, sizes))
    model, store_texts, requests = setup.repeat(sizes.setup_repeats)
    out = Outcome({
        "store_keywords": sizes.rerank_store, "requests_per_pass": sizes.rerank_requests,
        "k_mix": list(sizes.rerank_ks), "heads": list(HEADS), "dtype": "float32",
    })

    # offline: encode the keyword store; requests only read it. It is
    # encoded again after the timed phases to time it at another moment.
    build = Repeated(lambda: encode_corpus(store_texts, model, normalize=False).vectors
                     .astype(np.float32))
    cache = build.repeat(1)
    out.record(len(cache) == len(store_texts), "store skipped keywords")

    def serve(req):
        return rerank_request(model, cache, req)

    def k_attr(req):
        return {"k": len(req.keyword_rows), "head": req.head}

    for req in requests[: sizes.warmup]:
        serve(req)
    model.counters.reset()
    loop = closed_loop(requests, serve, out, _valid_scores, None if traced else seconds)
    out.end_to_end["peak_rss_mb"] = peak_rss_mb()
    counts = model.counters.as_dict()
    n_done = len(loop.times_s)
    sum_k = sum(len(requests[i % len(requests)].keyword_rows) for i in range(loop.sent))
    out.record_all(checks.rerank_counters(counts, loop.sent, sum_k), "OpCounters contract")

    if traced:
        tracer = Tracer()
        model.counters.reset()
        passes = traced_passes(requests, serve, serve, out, _valid_scores, tracer,
                               Instrumentation(tracer, model), k_attr)
        counts = model.counters.as_dict()
        pass_k = sum(len(r.keyword_rows) for r in requests)
        out.record_all(checks.rerank_counters(counts, 2 * len(requests), 2 * pass_k),
                       "OpCounters contract (traced passes)")
        out.tracer = tracer
        out.per_layer = layer_metrics(tracer.spans, len(passes.traced_s), counters=counts,
                                      overhead_ratio=passes.overhead_ratio)
        breakdown = self_time_by_layer(tracer.spans, passes)

    rng = np.random.default_rng([seed, 0xC4EC])
    for i in rng.choice(len(requests), size=min(sizes.rerank_check_sample, len(requests)),
                        replace=False):
        if loop.first_pass[i] is None:
            continue
        out.record_all(
            checks.cached_matches_online(model, store_texts, requests[i], loop.first_pass[i]),
            f"request {i}: cached scores vs score_pairs",
        )
    build.repeat(2)
    setup.repeat(sizes.setup_repeats)

    setup_s, store_s = setup.median(), build.median()
    p50, p90, p99 = (pct_ms(loop.times_s, q) for q in (50, 90, 99))
    rps = n_done / loop.wall_s
    out.end_to_end["setup_s"] = setup_s
    out.reported = {
        "setup_s": (setup_s, "s"),
        "request_p50_ms": (p50, "ms"),
        "request_p90_ms": (p90, "ms"),
        "request_p99_ms": (p99, "ms"),
        "requests_per_s": (rps, "1/s"),
        "store_encode_kw_per_s": (len(store_texts) / store_s, "1/s"),
    }
    if traced:
        out.reported.update(breakdown)
    out.params.update({"requests_timed": n_done, **counts})
    return out


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def search_inputs(seed: int, sizes: Sizes):
    """Model, ``search_corpus`` distinct keyword texts, and query texts."""
    model = serving_model()
    n_pairs = int(sizes.search_corpus * 1.25)
    pairs = generate_pairs(n_pairs=n_pairs, seed=seed, n_queries=sizes.search_queries)
    corpus = list(dict.fromkeys(p.keyword for p in pairs))[: sizes.search_corpus]
    if len(corpus) < sizes.search_corpus:
        raise ValueError(f"seed {seed} gave only {len(corpus)} distinct keywords")
    queries = [pairs[i].query for i in range(sizes.search_queries)]
    return model, corpus, queries


def search_request(model: TwinModel, index: EmbeddingIndex, text: str, top_n: int,
                   beam: int, tracer=NULL_TRACER):
    """Query text to top-n: encode, normalize, approximate graph search."""
    with tracer.span("index.query_encode"):
        q = model.encode_queries([text])[0]
        q = q / np.linalg.norm(q)
    with tracer.span("index.knn_approx"):
        return q, knn_approx(q, index, top_n, search_beam=beam)


def search(seed: int, seconds: float, traced: bool, sizes: Sizes = FULL,
           workdir: Path | None = None) -> Outcome:
    setup = Repeated(lambda: search_inputs(seed, sizes))
    model, corpus, queries = setup.repeat(sizes.setup_repeats)
    out = Outcome({
        "corpus_keywords": sizes.search_corpus, "queries_per_pass": sizes.search_queries,
        "encode_batch": 256, "degree_bound": sizes.search_degree,
        "build_beam": sizes.search_build_beam, "search_beam": sizes.search_beam,
        "top_n": sizes.top_n, "dtype": "float32",
    })
    tracer = Tracer() if traced else NULL_TRACER

    # write phase: store -> servable index
    t0 = perf_counter()
    with tracer.span("index.encode_corpus"):
        store = encode_corpus(corpus, model, batch_size=256)
    t1 = perf_counter()
    scan = checks.Scan(list(store.ids), store.vectors)
    with tracer.span("index.build_graph"):
        build_graph(store, degree_bound=sizes.search_degree, build_beam=sizes.search_build_beam)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        path = Path(tmp) / "index.twix"
        with tracer.span("index.save"):
            store.save(path)
        with tracer.span("index.load"):
            index = EmbeddingIndex.load(path)
    t2 = perf_counter()
    out.record(len(index) == len(corpus), "index lost keywords")

    top_n, beam = sizes.top_n, sizes.search_beam
    ids = set(scan.ids)

    def valid(text, result) -> bool:
        return not checks.ranked_results(result[1], ids, top_n)

    def serve(text):
        return search_request(model, index, text, top_n, beam)

    for text in queries[: sizes.warmup]:
        serve(text)
    loop = closed_loop(queries, serve, out, valid, None if traced else seconds)
    out.end_to_end["peak_rss_mb"] = peak_rss_mb()
    if traced:
        index.counters.reset()
        model.counters.reset()
        passes = traced_passes(
            queries, serve, lambda text: search_request(model, index, text, top_n, beam, tracer),
            out, valid, tracer, Instrumentation(tracer, model),
        )
        sent = 2 * len(queries)
        search_counts = {
            "distance_computations_per_query": index.counters.distance_computations / sent,
            "hops_per_query": index.counters.hops / sent,
        }
        model_counts = model.counters.as_dict()
        breakdown = self_time_by_layer(tracer.spans, passes)

    # exact search on a seeded sample of the same query vectors, outside the
    # approximate timing; each answer must equal a numpy scan of the store
    rng = np.random.default_rng([seed, 0xC4EC])
    exact_times = []
    for i in rng.choice(len(queries), size=min(sizes.exact_sample, len(queries)), replace=False):
        if loop.first_pass[i] is None:
            continue
        q = loop.first_pass[i][0]
        t = perf_counter()
        with tracer.span("index.knn_exact"):
            exact = knn_exact(q, index, top_n)
        exact_times.append(perf_counter() - t)
        out.record_all(
            checks.exact_matches_scan(exact, q, scan), f"query {i}: knn_exact vs numpy scan",
        )

    answered = [r for r in loop.first_pass if r is not None]
    recall = checks.recall_at(
        [[r.keyword_id for r in approx] for _, approx in answered],
        [q for q, _ in answered], scan, top_n,
    ) if answered else 0.0

    exact_p50 = pct_ms(exact_times, 50) if exact_times else float("nan")
    setup.repeat(sizes.setup_repeats)
    setup_s = setup.median()
    if traced:
        out.tracer = tracer
        search_counts["recall_at_10"] = recall
        search_counts["knn_exact_ms"] = float(np.mean(exact_times) * 1e3) if exact_times else 0.0
        out.per_layer = layer_metrics(
            tracer.spans, len(passes.traced_s), counters=model_counts, search=search_counts,
            overhead_ratio=passes.overhead_ratio,
        )

    encode_s, index_s = t1 - t0, t2 - t1
    p50, p90, p99 = (pct_ms(loop.times_s, q) for q in (50, 90, 99))
    rps = len(loop.times_s) / loop.wall_s
    out.end_to_end["setup_s"] = setup_s
    out.reported = {
        "setup_s": (setup_s, "s"),
        "request_p50_ms": (p50, "ms"),
        "request_p90_ms": (p90, "ms"),
        "request_p99_ms": (p99, "ms"),
        "requests_per_s": (rps, "1/s"),
        "exact_p50_ms": (exact_p50, "ms"),
        "recall_at_10": (recall, "ratio"),
        "corpus_encode_kw_per_s": (len(corpus) / encode_s, "1/s"),
        "index_build_s": (index_s, "s"),
    }
    if traced:
        out.reported.update(breakdown)
    out.params.update({"requests_timed": len(loop.times_s)})
    return out


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def train_inputs(seed: int, sizes: Sizes):
    model = training_model()
    pairs = generate_pairs(n_pairs=sizes.train_pairs, seed=seed)
    records = [PairRecord(query=p.query, keyword=p.keyword, teacher_logits=p.teacher_logits)
               for p in pairs]
    return model, records


def mean_ce(model: TwinModel, records: list[PairRecord], temperature: float,
            chunk: int = 256) -> float:
    """Mean cross-entropy of the model's scores against the soft teacher targets."""
    total = 0.0
    for lo in range(0, len(records), chunk):
        part = records[lo : lo + chunk]
        targets = np.asarray([soft_label(r.teacher_logits, temperature)[1] for r in part])
        probs = model.score_pairs([r.query for r in part], [r.keyword for r in part])
        total += ce_loss(targets, probs)
    return total / len(records)


class StepClock:
    """Records when each training step ends; in a traced run, alternates tracing.

    ``distill_train`` looks ``AdamW`` up in ``twinenc.training``; the clock
    puts a subclass there whose ``step`` notes its end time, so the time
    between consecutive ends is one full training step. With an
    instrumentation, steps run traced and untraced in alternating blocks,
    starting traced so that the tokenization before the first step is
    traced too.
    """

    def __init__(self, tracer=NULL_TRACER, instrumentation: Instrumentation | None = None,
                 block: int = 1):
        self.ends: list[float] = []
        self.traced: list[bool] = []
        self.tracer = tracer
        self.instrumentation = instrumentation
        self.block = block

    def optimizer_class(self):
        base = training_mod.AdamW
        clock = self

        class ClockedAdamW(base):
            def step(self, params, grads):
                if clock.tracing:
                    with clock.tracer.span("training.optimizer"):
                        base.step(self, params, grads)
                else:
                    base.step(self, params, grads)
                clock.step_done()

        return ClockedAdamW

    @property
    def tracing(self) -> bool:
        return self.instrumentation is not None and self.instrumentation.installed

    def step_done(self) -> None:
        self.ends.append(perf_counter())
        self.traced.append(self.tracing)
        if self.instrumentation is not None:
            self.tracer.request_id = len(self.ends)
            if len(self.ends) % self.block == 0:
                if self.tracing:
                    self.instrumentation.remove()
                else:
                    self.instrumentation.install()

    def step_times(self, traced: bool | None = None) -> list[float]:
        """Step durations, all or only the (un)traced ones; the first step is left out."""
        return [t for t, was in zip(np.diff(self.ends), self.traced[1:])
                if traced is None or was == traced]


def _distill(model, records, config, seed, clock: StepClock):
    """Run ``distill_train`` with ``clock`` in place of AdamW; returns (history, wall seconds)."""
    saved = training_mod.AdamW
    training_mod.AdamW = clock.optimizer_class()
    if clock.instrumentation is not None:
        clock.instrumentation.install()
    try:
        t0 = perf_counter()
        history = distill_train(records, config, model, seed=seed)
        wall = perf_counter() - t0
    finally:
        training_mod.AdamW = saved
        if clock.tracing:
            clock.instrumentation.remove()
    return history, wall


def train(seed: int, seconds: float, traced: bool, sizes: Sizes = FULL) -> Outcome:
    setup = Repeated(lambda: train_inputs(seed, sizes))
    model, records = setup.repeat(sizes.setup_repeats)
    epochs = max(1, round(seconds / SECONDS_PER_EPOCH))
    config = DistillationConfig(epochs=epochs)
    out = Outcome({
        "pairs": len(records), "epochs": epochs, "batch_size": config.batch_size,
        "dropout": model.config.dropout, "dtype": "float64",
    })
    steps_planned = epochs * math.ceil(len(records) / config.batch_size)

    if traced:
        tracer = Tracer()
        clock = StepClock(tracer, Instrumentation(tracer, model),
                          block=max(1, steps_planned // (2 * TRACE_BLOCKS)))
    else:
        clock = StepClock()
    try:
        history, wall = _distill(model, records, config, seed, clock)
    except training_mod.TrainingDivergedError as exc:
        raise SystemExit(f"benchmark: training diverged: {exc}") from exc
    out.end_to_end["peak_rss_mb"] = peak_rss_mb()
    # the initial weights are a pure function of MODEL_SEED
    initial_ce = mean_ce(training_model(), records, config.temperature)
    out.attempted += steps_planned
    out.record_all(
        checks.training_converged(history.epoch_losses, initial_ce,
                                  mean_ce(model, records, config.temperature), epochs),
        "distillation",
    )
    out.record(history.steps == steps_planned, f"ran {history.steps} of {steps_planned} steps")
    step_times = clock.step_times()

    if traced:
        traced_steps, untraced_steps = clock.step_times(True), clock.step_times(False)
        out.tracer = tracer
        out.per_layer = layer_metrics(
            tracer.spans, sum(clock.traced), train=True,
            overhead_ratio=float(np.median(traced_steps) / np.median(untraced_steps)),
        )

    setup.repeat(sizes.setup_repeats)
    setup_s = setup.median()
    pairs_in_steps = len(records) * epochs - min(config.batch_size, len(records))
    pairs_per_s = pairs_in_steps / float(np.sum(step_times))
    p50 = pct_ms(step_times, 50)
    p90 = pct_ms(step_times, 90)
    out.end_to_end["setup_s"] = setup_s
    out.reported = {
        "setup_s": (setup_s, "s"),
        "train_pairs_per_s": (pairs_per_s, "1/s"),
        "train_step_p50_ms": (p50, "ms"),
        "train_step_p90_ms": (p90, "ms"),
        "distill_wall_s": (wall, "s"),
        "initial_ce": (initial_ce, "nats"),
        "final_epoch_loss": (history.epoch_losses[-1], "nats"),
    }
    out.params.update({"steps": history.steps, "step_samples": len(step_times)})
    return out


WORKLOADS = {"rerank": rerank, "search": search, "train": train}
