"""Keyword embedding store and nearest-neighbor search.

The serving path: keyword embeddings are computed offline, unit-normalized,
and stored with a navigable proximity graph; at query time a greedy beam
search over the graph returns approximate top results, with brute-force
exact search available as the recall oracle. Because stored vectors are
unit-norm, descending cosine equals ascending Euclidean distance exactly.

The graph is built in the manner of NSG and Vamana: each node's exact
nearest neighbours (blocked ``V @ V.T`` products) are pruned to the degree
bound by one α rule, the entry point is the node nearest the mean
direction, and a final walk from it links any node it cannot reach. It is
held as one ``(n, degree_bound)`` int32 adjacency array: row i lists node
i's neighbours in ascending order, padded with -1 at the end. Search is
Vamana's greedy search over that array, expanding the ``_WIDTH`` best
unexpanded candidates per iteration, as DiskANN's beam width does.

A TWIX file holds the store as memory does: after the preamble come the
vectors, the ids and, when the header's ``degree_bound`` is not null, that
same int32 array, each row a fixed-width record as in DiskANN. Each array is
written from its own buffer and read back in one bounds-checked read.

A raw (unnormalized, float64) store, which the residual head needs, exists
in memory only; it carries no graph and is never written to a file.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import encoder, textio
from .checkpoint import atomic_write, pack_str, read_preamble, write_preamble
from .model import OpCounters, TwinModel
from .text import TokenSequence, encodable

logger = logging.getLogger(__name__)

INDEX_MAGIC = b"TWIX"
INDEX_FORMAT_VERSION = 2

METRIC_UNIT = "l2_unit"
METRIC_RAW = "raw_f64"

_NORM_TOL = 1e-6
_BLOCK = 16  # rows per V @ V.T product in build_graph; 256 rows cost 11 MB more peak RSS at 10k
_ALPHA = 1.2  # build_graph's pruning factor; 1.0 cuts recall on stores of duplicates to 0.1-0.3
_WIDTH = 8  # nodes knn_approx expands per iteration (scripts/beam_sweep.py)
_HEADER_TYPES = {"n": int, "dim": int, "metric": str, "degree_bound": (int, type(None)),
                 "build_beam": (int, type(None)), "entry_point": int}


@dataclass(slots=True)
class SearchResult:
    keyword_id: str
    cosine_score: float
    rank: int


@dataclass
class EmbeddingIndex:
    """ids + vectors (+ optional proximity graph) over one keyword corpus.

    ``metric`` is ``l2_unit`` for the searchable unit-normalized store and
    ``raw_f64`` for the in-memory raw-embedding cache (no search, no graph,
    no file). ``graph`` is the ``(n, degree_bound)`` int32 adjacency (rows
    ascending, padded with -1).
    """

    ids: list[str]
    vectors: np.ndarray
    metric: str = METRIC_UNIT
    graph: np.ndarray | None = None
    build_beam: int | None = None
    entry_point: int = 0
    counters: OpCounters = field(default_factory=lambda: OpCounters("distance_computations", "hops"))

    def __post_init__(self) -> None:
        n = len(self.ids)
        if np.ndim(self.vectors) != 2 or len(self.vectors) != n:
            raise ValueError("ids and vectors must align")
        if len(set(self.ids)) != n:
            raise ValueError("keyword ids must be unique")
        if not np.isfinite(self.vectors).all():
            raise ValueError("vectors must be finite")
        if self.metric == METRIC_UNIT:
            # float64 sums of squares, without a float64 copy of the store
            norms = np.sqrt(np.einsum("ij,ij->i", self.vectors, self.vectors, dtype=np.float64))
            bad = np.flatnonzero(np.abs(norms - 1.0) > _NORM_TOL)
            if bad.size:
                raise ValueError(f"vector for id {self.ids[bad[0]]!r} is not unit-norm (|v| = {norms[bad[0]]!r})")
        elif self.metric != METRIC_RAW:
            raise ValueError(f"unknown metric tag: {self.metric!r}")
        if self.graph is not None:
            self._check_graph(n)
        if n and not 0 <= self.entry_point < n:
            raise ValueError(f"entry point {self.entry_point} is not in [0, {n})")

    def _check_graph(self, n: int) -> None:
        g = self.graph
        if not isinstance(g, np.ndarray) or g.dtype != np.int32 or g.ndim != 2 or len(g) != n:
            got = f"{g.dtype} {g.shape}" if isinstance(g, np.ndarray) else type(g).__name__
            raise ValueError(f"graph must be an int32 array of {n} neighbour lists, got {got}")
        real = g >= 0
        if (g >= n).any() or (g < -1).any() or (real[:, 1:] & ~real[:, :-1]).any():
            raise ValueError(f"neighbour ids must lie in [0, {n}), and -1 may only pad a row's end")

    def __len__(self) -> int:
        return len(self.ids)

    def neighbours(self, node: int) -> np.ndarray:
        """Node's neighbour ids, ascending: its graph row without the padding."""
        row = self.graph[node]
        return row[: np.count_nonzero(row >= 0)]

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[1])

    @property
    def degree_bound(self) -> int | None:
        """The graph's width, or None without a graph."""
        return None if self.graph is None else self.graph.shape[1]

    # -- persistence -------------------------------------------------------

    def save(self, path: str | Path) -> None:
        """Write the unit-normalized store; a raw store has no file format."""
        if self.metric != METRIC_UNIT:
            raise ValueError(f"{path}: only a unit-normalized store can be saved, not {self.metric!r}")
        header = {"n": len(self.ids), "dim": self.dim, "metric": self.metric,
                  "degree_bound": self.degree_bound, "build_beam": self.build_beam,
                  "entry_point": self.entry_point}

        def chunks():
            yield from write_preamble(INDEX_MAGIC, INDEX_FORMAT_VERSION, header)
            yield np.ascontiguousarray(self.vectors, dtype="<f4")  # the store's own buffer
            yield from (pack_str(kid) for kid in self.ids)
            if self.graph is not None:
                yield np.ascontiguousarray(self.graph, dtype="<i4")  # the graph's own buffer

        atomic_write(path, chunks())

    @classmethod
    def load(cls, path: str | Path) -> EmbeddingIndex:
        with open(path, "rb") as f:
            r, header = read_preamble(f, path, INDEX_MAGIC, INDEX_FORMAT_VERSION, "keyword index")
            for key, types in _HEADER_TYPES.items():
                # no key is boolean, and a JSON true must not pass as the int 1
                if key not in header or not isinstance(header[key], types) or isinstance(header[key], bool):
                    raise r.error(f"keyword index header key {key!r} is missing or mistyped")
            n, dim, width = header["n"], header["dim"], header["degree_bound"]
            if min(n, dim, width or 0) < 0:
                raise r.error(f"keyword index header has negative shape n={n}, dim={dim}, "
                              f"degree_bound={width}")
            if header["metric"] != METRIC_UNIT:
                raise r.error(f"keyword index metric {header['metric']!r} is not {METRIC_UNIT!r}")
            vectors = r.array("<f4", n * dim)
            ids = [r.string() for _ in range(n)]
            graph = None if width is None else r.array("<i4", n * width)
            r.finish()
        try:  # numpy rejects a dim past its maximum even when n is 0
            return cls(ids=ids, vectors=vectors.reshape(n, dim),
                       graph=None if graph is None else graph.reshape(n, width),
                       build_beam=header["build_beam"], entry_point=header["entry_point"])
        except ValueError as exc:
            raise r.error(str(exc)) from None


def _row_norms(vectors: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("cannot normalize a zero vector")
    return norms


def encode_corpus(
    keywords,
    model: TwinModel,
    ids: list[str] | None = None,
    batch_size: int = 256,
    normalize: bool = True,
) -> EmbeddingIndex:
    """Encode a keyword stream into an embedding store.

    Unit-normalized float32 by default (the searchable store); with
    ``normalize=False`` the raw float64 embeddings are kept instead (the
    residual-head serving cache). Keywords that ``text.encodable`` refuses
    are skipped with a warning and their ids excluded.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    keywords = list(keywords)
    if ids is None:
        ids = textio.keyword_ids(len(keywords))
    if len(ids) != len(keywords):
        raise ValueError("ids and keywords must align")
    # each batch of batch_size kept keywords is tokenized, encoded and
    # written straight into the store, normalized in place
    vectors = np.empty((len(keywords), model.config.hidden_size),
                       dtype=np.float32 if normalize else np.float64)
    kept_ids: list[str] = []
    batch: list[TokenSequence] = []
    for i, (kid, text) in enumerate(zip(ids, keywords)):
        try:
            encodable(text)
        except ValueError:
            logger.warning("skipping unencodable keyword %r (id %s)", text, kid)
        else:
            batch.append(model.tokenize(text))
            kept_ids.append(kid)
        if batch and (len(batch) == batch_size or i == len(keywords) - 1):
            emb = model.encode_keyword_batch(encoder.pack_sequences(batch))[0]
            if normalize:
                emb /= _row_norms(emb)
            vectors[len(kept_ids) - len(emb) : len(kept_ids)] = emb
            batch.clear()
    if not kept_ids:
        raise ValueError("corpus is empty after filtering unencodable keywords")
    if len(kept_ids) < len(vectors):
        vectors = vectors[: len(kept_ids)].copy()
    return EmbeddingIndex(ids=kept_ids, vectors=vectors, metric=METRIC_UNIT if normalize else METRIC_RAW)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def _check_query(q: np.ndarray, index: EmbeddingIndex) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64).ravel()
    if q.shape[0] != index.dim:
        raise ValueError(f"query dim {q.shape[0]} != index dim {index.dim}")
    norm = np.linalg.norm(q)
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise ValueError(f"query vector must be unit-norm (|q| = {norm!r})")
    return q


def _ranked_results(index: EmbeddingIndex, node_ids, scores, top_n: int) -> list[SearchResult]:
    # sort only the candidates scoring at least the top_n-th best, ties included
    scores = np.asarray(scores, dtype=np.float64)
    keep = range(len(scores))
    if top_n < len(scores):
        kth = np.partition(scores, len(scores) - top_n)[len(scores) - top_n]
        keep = np.flatnonzero(scores >= kth)
    order = sorted(keep, key=lambda i: (-scores[i], index.ids[node_ids[i]]))
    return [
        SearchResult(keyword_id=index.ids[node_ids[i]], cosine_score=float(scores[i]), rank=rank)
        for rank, i in enumerate(order[:top_n], start=1)
    ]


def _check_search(index: EmbeddingIndex, top_n: int) -> None:
    if index.metric != METRIC_UNIT:
        raise ValueError("search requires a unit-normalized index")
    if len(index) == 0:
        raise ValueError("cannot search an empty index")
    if top_n < 1:
        raise ValueError("top_n must be >= 1")


def _scan_margin(dim: int) -> float:
    """Twice the bound (d + 1)·2⁻²⁴ on the error of a float32 dot product of
    two unit vectors, one of them rounded from float64 first."""
    return 2.0 * (dim + 1) * 2.0**-24


def knn_exact(q: np.ndarray, index: EmbeddingIndex, top_n: int) -> list[SearchResult]:
    """True top-n by cosine over every stored vector (the recall oracle).

    The store is scanned in float32; every row within ``_scan_margin`` of the
    n-th best float32 score, a superset of the true top n, is rescored in
    float64. Ties break by ascending keyword id; results are independent of
    corpus storage order.
    """
    _check_search(index, top_n)
    q = _check_query(q, index)
    n = len(index)
    scan = index.vectors @ q.astype(np.float32)
    index.counters.distance_computations += n
    kth = np.partition(scan, n - top_n)[n - top_n] if top_n < n else -np.inf
    rows = np.flatnonzero(scan >= kth - _scan_margin(index.dim))
    return _ranked_results(index, rows, index.vectors[rows] @ q, top_n)


def build_graph(index: EmbeddingIndex, degree_bound: int = 16, build_beam: int = 64) -> EmbeddingIndex:
    """Attach a navigable proximity graph to the index (in place).

    Node i's candidates are its ``build_beam`` exact nearest neighbours in
    (-similarity, id) order, α-pruned to at most ``degree_bound``; then every
    node is made reachable from the entry point. Deterministic.
    """
    if index.metric != METRIC_UNIT:
        raise ValueError("graphs are built over unit-normalized vectors only")
    if degree_bound < 1:
        raise ValueError("degree_bound must be >= 1")
    if build_beam < 1:
        raise ValueError("build_beam must be >= 1")
    vectors, n = index.vectors, len(index)
    graph = np.full((n, degree_bound), -1, dtype=np.int32)
    k = min(build_beam, n - 1)
    for lo in range(0, n if k > 0 else 0, _BLOCK):
        for i, row in enumerate(vectors[lo : lo + _BLOCK] @ vectors.T, start=lo):
            row[i] = -np.inf  # no self-loops
            kth = np.partition(row, n - k)[n - k]  # the k-th largest similarity
            top = np.flatnonzero(row >= kth)
            cands = top[np.lexsort((top, -row[top]))][:k]
            kept = _prune(vectors, cands, row[cands], degree_bound)
            graph[i, : len(kept)] = kept
    if n:
        index.entry_point = int(np.argmax(vectors @ vectors.mean(axis=0)))
        _connect(vectors, graph, index.entry_point)
    graph.view(np.uint32).sort(axis=1)  # ascending ids; the -1 padding, as uint32, sorts last
    index.graph = graph
    index.build_beam = build_beam
    return index


def _prune(vectors, cands: np.ndarray, sims: np.ndarray, degree_bound: int) -> list[int]:
    """Keep candidates nearest first, dropping each candidate c that a kept p
    is closer to than node i is, by the factor α: α·|p - c|² <= |i - c|²
    (|a - b|² = 2 - 2·a·b on unit vectors). Of several copies, one is kept."""
    blocked = _ALPHA * (1.0 - vectors[cands] @ vectors[cands].T) <= 1.0 - sims  # [p, c]
    kept: list[int] = []
    dropped = np.zeros(len(cands), dtype=bool)
    for j in range(len(cands)):
        if dropped[j]:
            continue
        kept.append(int(cands[j]))
        if len(kept) == degree_bound:
            break
        dropped |= blocked[j]
    return kept


def _connect(vectors, graph: np.ndarray, entry: int) -> None:
    """Link each node a walk from ``entry`` misses from its nearest reached
    node u; a full u hands its farthest edge u -> w over: u -> v -> w. No
    reached node becomes unreached, so every repair grows the reached set.
    Rows are repaired in place and keep their order (the first of equally
    far neighbours goes), with the padding at the end."""
    seen = np.zeros(len(graph) + 1, dtype=bool)
    seen[-1] = True  # the slot the -1 padding indexes

    def walk(node: int) -> None:
        frontier = np.array([node])
        seen[node] = True
        while frontier.size:
            nbrs = graph[frontier].ravel()
            frontier = np.unique(nbrs[~seen[nbrs]])  # each node once per wave
            seen[frontier] = True

    def drop_farthest(node: int) -> int:
        row = graph[node]
        j = int(np.argmin(vectors[row] @ vectors[node]))
        w = int(row[j])
        row[j:-1] = row[j + 1 :].copy()
        row[-1] = -1
        return w

    def append(node: int, v: int) -> None:
        row = graph[node]
        row[np.count_nonzero(row >= 0)] = v

    walk(entry)
    for v in range(len(graph)):
        if seen[v]:
            continue
        reached = np.flatnonzero(seen[:-1])
        u = int(reached[np.argmax(vectors[reached] @ vectors[v])])
        if graph[u, -1] >= 0:  # u is full
            w = drop_farthest(u)
            if w not in graph[v]:
                if graph[v, -1] >= 0:
                    drop_farthest(v)
                append(v, w)
        append(u, v)
        walk(v)


def knn_approx(q: np.ndarray, index: EmbeddingIndex, top_n: int, search_beam: int = 64) -> list[SearchResult]:
    """Approximate top-n by greedy search of the proximity graph.

    A candidate list of the ``search_beam`` best nodes seen so far starts at
    the entry point; each iteration expands the ``_WIDTH`` best unexpanded
    candidates, gathering their neighbour rows with one fancy index, and the
    search ends when every candidate is expanded. ``counters.hops`` counts
    expanded nodes.
    """
    if index.graph is None:
        raise ValueError("index has no graph; call build_graph first")
    _check_search(index, top_n)
    if search_beam < top_n:
        raise ValueError(f"search_beam ({search_beam}) must be >= top_n ({top_n})")
    q = _check_query(q, index)
    vectors, graph, counters = index.vectors, index.graph, index.counters
    visited = np.zeros(len(index) + 1, dtype=bool)
    visited[[index.entry_point, -1]] = True  # the last slot is the one the -1 padding indexes
    nodes = np.array([index.entry_point])
    scores = vectors[nodes] @ q
    expanded = np.zeros(1, dtype=bool)
    counters.distance_computations += 1
    while (todo := np.flatnonzero(~expanded)[:_WIDTH]).size:
        expanded[todo] = True
        counters.hops += todo.size
        nbrs = graph[nodes[todo]].ravel()
        nbrs = np.unique(nbrs[~visited[nbrs]])
        if not nbrs.size:
            continue
        visited[nbrs] = True
        counters.distance_computations += nbrs.size
        nodes = np.concatenate((nodes, nbrs))
        scores = np.concatenate((scores, vectors[nbrs] @ q))
        expanded = np.concatenate((expanded, np.zeros(nbrs.size, dtype=bool)))
        best = np.lexsort((nodes, -scores))[:search_beam]
        nodes, scores, expanded = nodes[best], scores[best], expanded[best]
    return _ranked_results(index, nodes, scores, top_n)
