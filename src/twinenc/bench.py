"""Serving-latency benchmark for the decoupling speedup.

Three scenarios are timed per query: the twin modes score a query against
its keyword set through a crossing head (with keyword embeddings either
cached or encoded at request time), while the cross-encoder mode runs a
full encoder pass over every concatenated (query, keyword) pair. Timing
assertions elsewhere are trend/ratio claims only; the hard guarantees here
are the operation counters, which are exact. A grid tokenizes its texts
once, before the timed region, and reports that time on each of its rows.

With the keyword cache on, per-query cost is one query encoding plus a
per-keyword crossing term, so a least-squares line over an n_keywords grid
estimates the encoder cost (intercept) and crossing cost (slope); for the
cross encoder the slope is the full per-pair encoder cost.
"""

from __future__ import annotations

import dataclasses
import gc
import time
from dataclasses import dataclass

import numpy as np

from . import crossing
from .config import ModelConfig
from .encoder import (
    cast_params,
    encoder_forward,
    init_encoder_params,
    pack_sequences,
    sigmoid,
    truncated_normal,
)
from .model import SERVING_DTYPE, TwinModel
from .synthetic import generate_pairs

MODEL_MODES = ("twin_cosine", "twin_residual", "cross_encoder")


@dataclass
class LatencyScenario:
    model_mode: str
    qel: int = 1  # query encoding loops per query
    keyword_cache: bool = True
    n_queries: int = 100
    n_keywords_per_query: int = 100
    repetitions: int = 3

    def __post_init__(self) -> None:
        if self.model_mode not in MODEL_MODES:
            raise ValueError(f"model_mode must be one of {MODEL_MODES}, got {self.model_mode!r}")
        if self.qel < 1:
            raise ValueError("qel must be >= 1")
        if self.n_queries < 1 or self.n_keywords_per_query < 1:
            raise ValueError("n_queries and n_keywords_per_query must be >= 1")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")


@dataclass
class TimingReport:
    scenario: LatencyScenario
    mean_ms: float
    median_ms: float
    p95_ms: float
    total_s: float
    tokenize_ms: float
    counters: dict[str, int]
    n_samples: int

    def as_dict(self) -> dict:
        row = dataclasses.asdict(self)
        scenario, counters = row.pop("scenario"), row.pop("counters")
        return {**scenario, **row, **counters}


@dataclass
class ComplexityFit:
    """Per-query time modeled as alpha + beta * n_keywords."""

    alpha_ms: float
    beta_ms: float
    beta_se_ms: float  # the slope's ordinary-least-squares standard error
    rms_residual_ms: float


def make_cross_encoder(config: ModelConfig, seed: int = 0):
    """Random cross-encoder of the same width/depth for timing comparisons.

    It consumes concatenated query+keyword sequences, so its position table
    covers twice the twin max_len; a logistic layer on the pooled vector
    stands in for the classification output.
    """
    cross_config = dataclasses.replace(config, max_len=2 * config.max_len,
                                       shared_encoders=True, dropout=0.0)
    rng = np.random.default_rng(seed)
    params = init_encoder_params(cross_config, rng, "encoder")
    params["out.w"] = truncated_normal(rng, (config.hidden_size,))
    params["out.b"] = np.zeros(())
    return cross_config, params


def _bench_texts(n_q: int, n_k: int, seed: int):
    """Deterministic synthetic texts: ``n_q`` queries and ``n_k`` keywords for each."""
    pairs = generate_pairs(n_pairs=n_q * n_k, seed=seed, n_queries=n_q)
    # generate_pairs assigns pair j to query slot j % n_q
    queries = [pairs[qi].query for qi in range(n_q)]
    keyword_sets = [[pairs[j].keyword for j in range(qi, n_q * n_k, n_q)] for qi in range(n_q)]
    return queries, keyword_sets


def _twin_request(scenario: LatencyScenario, model: TwinModel, queries: list[str],
                  keyword_sets: list[list[str]]):
    """A twin grid's request, its texts tokenized once: ``(request, tokenize_ms)``.
    ``request(run_model, nk)`` is the ``run_query`` of the point at ``nk`` keywords."""
    t0 = time.perf_counter()
    q_batches = [pack_sequences([model.tokenize(q)]) for q in queries]
    kw_seqs = [model.tokenize_many(kws) for kws in keyword_sets]
    tokenize_ms = (time.perf_counter() - t0) * 1e3
    head = "cosine" if scenario.model_mode == "twin_cosine" else "residual"
    # offline phase, outside the timed region: each keyword set is encoded
    # once, at the largest count, and a point reads its prefix
    cached_kw_embs = ([model.encode_keyword_batch(pack_sequences(seqs))[0] for seqs in kw_seqs]
                      if scenario.keyword_cache else None)

    def request(run_model: TwinModel, nk: int):
        kw_inputs = ([embs[:nk] for embs in cached_kw_embs] if cached_kw_embs is not None
                     else [pack_sequences(seqs[:nk]) for seqs in kw_seqs])

        def run_query(qi: int) -> None:
            for _ in range(scenario.qel):
                q_emb, _ = run_model.encode_query_batch(q_batches[qi])
            if cached_kw_embs is not None:
                k_embs = kw_inputs[qi]
            else:
                k_embs, _ = run_model.encode_keyword_batch(kw_inputs[qi])
            q_rows = np.broadcast_to(q_emb[0], k_embs.shape)
            run_model.score_embeddings(q_rows, k_embs, head=head)

        return run_query

    return request, tokenize_ms


def _cross_request(model: TwinModel, seed: int, queries: list[str], keyword_sets: list[list[str]]):
    """A cross-encoder grid's request over concatenated (query, keyword) pairs, its
    texts tokenized once: ``(request, tokenize_ms)``. ``request(run_model, nk)`` is
    the ``run_query`` of the point at ``nk`` keywords."""
    cross_config, cross_params = make_cross_encoder(model.config, seed)
    cross_params = cast_params(cross_params, SERVING_DTYPE)  # only the cast copy serves
    t0 = time.perf_counter()
    pair_seqs = [[model.tokenize(f"{q} {kw}", max_len=cross_config.max_len) for kw in kws]
                 for q, kws in zip(queries, keyword_sets)]
    tokenize_ms = (time.perf_counter() - t0) * 1e3

    # An rng makes the cross forward keep a backward cache it never reads (at
    # dropout 0 it draws nothing): criterion 7's ratio is calibrated with that
    # cost in. ROADMAP "Watch" says when to drop it.
    cross_rng = np.random.default_rng(0)

    def request(run_model: TwinModel, nk: int):
        cross_batches = [pack_sequences(seqs[:nk]) for seqs in pair_seqs]

        def run_query(qi: int) -> None:
            emb, _ = encoder_forward(cross_params, "encoder", cross_batches[qi], cross_config, rng=cross_rng)
            run_model.counters.cross_encoder_passes += cross_batches[qi].n_examples
            sigmoid(emb @ cross_params["out.w"] + cross_params["out.b"])

        return run_query

    return request, tokenize_ms


def _run_round_robin(scenario: LatencyScenario, nk_grid: list[int], model: TwinModel, warmup: int,
                     seed: int) -> list[TimingReport]:
    """Time ``scenario`` at each keyword count of ``nk_grid``, one pass over each
    point per repetition, in turn, so a change in host speed during the run
    shifts every point alike. One model cast to ``SERVING_DTYPE``, at most one
    cross-encoder and one request serve every point; each point has its own counters.
    """
    texts = _bench_texts(scenario.n_queries, max(nk_grid), seed)
    served = model.cast(SERVING_DTYPE)
    if scenario.model_mode == "cross_encoder":
        request, tokenize_ms = _cross_request(served, seed, *texts)
    else:
        request, tokenize_ms = _twin_request(scenario, served, *texts)
    points = []
    for nk in nk_grid:
        # the same arrays; its own counters count only this point
        run_model = TwinModel(config=served.config, params=served.params)
        run_query = request(run_model, nk)
        for qi in range(min(warmup, scenario.n_queries)):
            run_query(qi)
        run_model.counters.reset()
        points.append((run_query, run_model.counters))
    times_ms: list[list[float]] = [[] for _ in points]
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(scenario.repetitions):
            for (run_query, _), times in zip(points, times_ms):
                for qi in range(scenario.n_queries):
                    t = time.perf_counter()
                    run_query(qi)
                    times.append((time.perf_counter() - t) * 1e3)
    finally:
        if gc_was_enabled:
            gc.enable()

    reports = []
    for nk, (_, counters), times in zip(nk_grid, points, times_ms):
        arr = np.asarray(times)
        reports.append(TimingReport(
            scenario=dataclasses.replace(scenario, n_keywords_per_query=nk),
            mean_ms=float(arr.mean()),
            median_ms=float(np.median(arr)),
            p95_ms=float(np.percentile(arr, 95)),
            total_s=float(arr.sum()) / 1e3,
            tokenize_ms=tokenize_ms,
            counters=counters.as_dict(),
            n_samples=len(times),
        ))
    return reports


def bench(
    scenario: LatencyScenario,
    model: TwinModel,
    warmup: int = 2,
    seed: int = 0,
) -> TimingReport:
    """Run one latency scenario and return per-query timing plus counters."""
    return _run_round_robin(scenario, [scenario.n_keywords_per_query], model, warmup, seed)[0]


def check_nk_grid(nk_grid: list[int]) -> None:
    """Refuse a keyword-count grid whose line fit leaves no residual to judge it by."""
    if min(nk_grid, default=0) < 1 or len(set(nk_grid)) < 3:
        raise ValueError("degenerate grid: the fit needs at least 3 distinct positive keyword counts")


def complexity_fit(grid: list[tuple[int, float]]) -> ComplexityFit:
    """Least-squares fit of per-query time vs keyword count.

    ``grid`` holds (n_keywords, mean_time_ms) points; its keyword counts
    must pass :func:`check_nk_grid`.
    """
    check_nk_grid([g[0] for g in grid])
    nk = np.asarray([g[0] for g in grid], dtype=np.float64)
    t = np.asarray([g[1] for g in grid], dtype=np.float64)
    beta, alpha = np.polyfit(nk, t, 1)
    resid = t - (alpha + beta * nk)
    ssr = float((resid**2).sum())
    sxx = float(((nk - nk.mean()) ** 2).sum())
    return ComplexityFit(
        alpha_ms=float(alpha),
        beta_ms=float(beta),
        beta_se_ms=float(np.sqrt(ssr / (len(nk) - 2) / sxx)),
        rms_residual_ms=float(np.sqrt(ssr / len(nk))),
    )


def bench_grid(
    scenario: LatencyScenario,
    model: TwinModel,
    nk_grid: list[int],
    warmup: int = 2,
    seed: int = 0,
) -> tuple[list[TimingReport], ComplexityFit]:
    """Time ``scenario`` at each keyword count of ``nk_grid`` and fit the line.

    Every grid point reads its prefix of the same texts (and of their one
    offline encode), and the fit runs over per-point medians, so the slope
    reflects per-keyword cost rather than workload differences. The points
    are timed round-robin, so host speed drift cannot tilt the slope.
    """
    check_nk_grid(nk_grid)
    reports = _run_round_robin(scenario, nk_grid, model, warmup, seed)
    fit = complexity_fit([(r.scenario.n_keywords_per_query, r.median_ms) for r in reports])
    return reports, fit
