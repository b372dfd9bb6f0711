import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from twinenc import ModelConfig, TwinModel
from twinenc.checkpoint import pack_str, write_preamble
from twinenc.encoder import pack_sequences
from twinenc.index import (
    INDEX_FORMAT_VERSION,
    INDEX_MAGIC,
    METRIC_UNIT,
    EmbeddingIndex,
    RawStore,
    build_graph,
    encode_corpus,
    knn_approx,
    knn_exact,
)


def _unit_vectors(rng, n, dim=16):
    v = rng.standard_normal((n, dim))
    return (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)


def _index(rng, n, dim=16):
    return EmbeddingIndex(ids=[f"k{i:04d}" for i in range(n)], vectors=_unit_vectors(rng, n, dim))


def _normalize_rows(vectors):
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("cannot normalize a zero vector")
    return vectors / norms


def _adjacency(rows, width):
    """Neighbour lists as an index graph: one int32 row each, padded with -1."""
    graph = np.full((len(rows), width), -1, dtype=np.int32)
    for row, nbrs in zip(graph, rows):
        row[: len(nbrs)] = nbrs
    return graph


def _neighbours(index, node):
    """Node's neighbour ids: its graph row without the -1 padding."""
    row = index.graph[node]
    return row[row >= 0]


def _reachable(index):
    seen = {index.entry_point}
    stack = [index.entry_point]
    while stack:
        node = stack.pop()
        for v in _neighbours(index, node):
            if int(v) not in seen:
                seen.add(int(v))
                stack.append(int(v))
    return seen


class TestEmbeddingIndex:
    def test_non_unit_vector_rejected(self, rng):
        v = rng.standard_normal((4, 8)).astype(np.float32)
        with pytest.raises(ValueError, match="unit-norm"):
            EmbeddingIndex(ids=list("abcd"), vectors=v * 3)

    def test_duplicate_ids_rejected(self, rng):
        v = _unit_vectors(rng, 2, 8)
        with pytest.raises(ValueError, match="unique"):
            EmbeddingIndex(ids=["a", "a"], vectors=v)

    def test_nan_row_rejected(self, rng):
        v = _unit_vectors(rng, 4, 8)
        v[2, 0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            EmbeddingIndex(ids=list("abcd"), vectors=v)

    def test_graph_invariants(self, rng):
        v = _unit_vectors(rng, 3, 8)
        ok = [[1], [0, 2], []]
        EmbeddingIndex(ids=list("abc"), vectors=v, graph=_adjacency(ok, 2), entry_point=2)
        with pytest.raises(ValueError, match="neighbour lists"):
            EmbeddingIndex(ids=list("abc"), vectors=v, graph=_adjacency(ok[:2], 2))
        for bad in (3, -1, 10**6):  # -1 before a real id is padding out of place
            with pytest.raises(ValueError, match="neighbour ids"):
                EmbeddingIndex(ids=list("abc"), vectors=v, graph=_adjacency([[1], [bad, 0], []], 2))
        with pytest.raises(ValueError, match="entry point"):
            EmbeddingIndex(ids=list("abc"), vectors=v, graph=_adjacency(ok, 2), entry_point=3)


class TestEncodeCorpus:
    def test_single_keyword(self, tiny_model):
        idx = encode_corpus(["red shoes"], tiny_model)
        assert len(idx) == 1
        assert abs(np.linalg.norm(idx.vectors[0].astype(np.float64)) - 1.0) < 1e-6

    def test_duplicate_text_identical_vectors(self, tiny_model):
        idx = encode_corpus(["red shoes", "red shoes"], tiny_model, ids=["a", "b"])
        np.testing.assert_array_equal(idx.vectors[0], idx.vectors[1])

    def test_reencoding_bit_identical(self, tiny_model):
        texts = ["red shoes", "blue hat", "green socks"]
        a = encode_corpus(texts, tiny_model)
        b = encode_corpus(texts, tiny_model)
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_unencodable_keyword_skipped(self, tiny_model, caplog):
        idx = encode_corpus(["red shoes", "???", "blue hat"], tiny_model, ids=["a", "b", "c"])
        assert idx.ids == ["a", "c"]

    def test_only_unencodable_text_is_skipped(self, tiny_model, monkeypatch):
        # text.encodable alone decides what is skipped; any other tokenizer error propagates
        def broken(text, max_len=None):
            raise ValueError("tokenizer broke")

        monkeypatch.setattr(tiny_model, "tokenize", broken)
        with pytest.raises(ValueError, match="tokenizer broke"):
            encode_corpus(["red shoes"], tiny_model)

    @pytest.mark.parametrize("texts", [
        ["red shoes", "???", "blue hat", "green tea", "cat"],  # the first batch ends with a skip
        ["red shoes", "???", "!!", "blue hat", "green tea"],  # skips fill a whole batch
        ["red shoes", "blue hat", "green tea", "???"],  # the last keyword is skipped
        ["???", "!!", "red shoes"],
    ])
    def test_skips_keep_ids_and_vectors_aligned(self, tiny_model, texts):
        # batches are of kept keywords, so the store equals the one encoded
        # from the kept keywords alone
        ids = [f"k{i}" for i in range(len(texts))]
        kept = [(kid, t) for kid, t in zip(ids, texts) if t not in ("???", "!!")]
        for normalize in (True, False):
            store = encode_corpus(texts, tiny_model, ids=ids, batch_size=2, normalize=normalize)
            clean = encode_corpus([t for _, t in kept], tiny_model, batch_size=2, normalize=normalize)
            assert store.ids == [kid for kid, _ in kept]
            assert store.vectors.tobytes() == clean.vectors.tobytes()

    def test_empty_corpus_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            encode_corpus([], tiny_model)
        with pytest.raises(ValueError):
            encode_corpus(["???"], tiny_model)
        with pytest.raises(ValueError, match="corpus is empty after filtering unencodable keywords"):
            encode_corpus(["???", "!!", "?"], tiny_model, batch_size=2)

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected_before_tokenizing(self, tiny_model, monkeypatch, batch_size):
        def no_tokenize(*args, **kwargs):
            raise AssertionError("tokenized before batch_size was checked")

        monkeypatch.setattr(tiny_model, "tokenize", no_tokenize)
        with pytest.raises(ValueError, match=f"batch_size must be >= 1, got {batch_size}"):
            encode_corpus(["red shoes"], tiny_model, batch_size=batch_size)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_raw_store_is_encode_keywords_in_the_model_dtype(self, tiny_model, dtype):
        model = tiny_model.cast(dtype)
        raw = encode_corpus(["red shoes", "???", "blue hat"], model, normalize=False)
        direct = model.encode_keywords(["red shoes", "blue hat"])
        assert isinstance(raw, RawStore) and raw.vectors.dtype == dtype
        assert raw.vectors.tobytes() == direct.tobytes()

    @pytest.mark.parametrize("normalize", [True, False])
    def test_a_repeated_id_is_refused_before_anything_is_encoded(self, tiny_model, monkeypatch, normalize):
        calls = []
        monkeypatch.setattr(tiny_model, "encode_keywords", calls.append)
        with pytest.raises(ValueError, match="keyword ids must be unique"):
            encode_corpus(["red shoes", "blue hat"], tiny_model, ids=["x", "x"], normalize=normalize)
        assert calls == []

    def test_rows_come_from_encode_keywords_batch_size_kept_keywords_per_call(self, tiny_model, monkeypatch):
        sizes = []
        real = tiny_model.encode_keywords

        def counting(texts):
            sizes.append(len(texts))
            return real(texts)

        monkeypatch.setattr(tiny_model, "encode_keywords", counting)
        texts = ["red shoes", "???", "blue hat", "green tea", "cat", "!!", "hat", "paris", "x y"]
        encode_corpus(texts, tiny_model, batch_size=3)
        assert sizes == [3, 3, 1]


class TestEncodeCorpusStore:
    """The store is written batch by batch into one array, bit-equal to
    normalizing and casting the stacked batch embeddings."""

    KEYWORDS = ["red shoes", "blue hat", "cheap flights to paris", "cat", "running shoes",
                "a b c d e f", "red shoes", "green tea", "hat", "paris hotels", "x y"]

    def _stacked(self, model, batch_size):
        seqs = model.tokenize_many(self.KEYWORDS)
        return np.vstack([model.encode_keyword_batch(pack_sequences(seqs[lo : lo + batch_size]))[0]
                          for lo in range(0, len(seqs), batch_size)])

    @pytest.mark.parametrize("batch_size", [256, 4, 1])
    @pytest.mark.parametrize("dtype", [None, np.float32])
    def test_bit_equal_to_stacked_reference(self, tiny_model, batch_size, dtype):
        model = tiny_model if dtype is None else tiny_model.cast(dtype)
        stacked = self._stacked(model, batch_size)
        store = encode_corpus(self.KEYWORDS, model, batch_size=batch_size)
        assert store.vectors.dtype == np.float32
        assert store.vectors.tobytes() == _normalize_rows(stacked).astype(np.float32).tobytes()
        raw = encode_corpus(self.KEYWORDS, model, batch_size=batch_size, normalize=False)
        assert isinstance(raw, RawStore) and raw.vectors.dtype == model.dtype
        assert raw.vectors.tobytes() == stacked.tobytes()


class TestKnnExact:
    def test_self_retrieval(self, rng):
        idx = _index(rng, 20)
        results = knn_exact(idx.vectors[7].astype(np.float64), idx, 3)
        assert results[0].keyword_id == "k0007"
        assert results[0].rank == 1
        assert results[0].cosine_score == pytest.approx(1.0, abs=1e-6)

    def test_top_n_clamped(self, rng):
        idx = _index(rng, 5)
        q = idx.vectors[0].astype(np.float64)
        assert len(knn_exact(q, idx, 50)) == 5

    def test_empty_index_rejected(self):
        idx = EmbeddingIndex(ids=[], vectors=np.zeros((0, 8), dtype=np.float32))
        q = np.zeros(8); q[0] = 1.0
        with pytest.raises(ValueError):
            knn_exact(q, idx, 1)

    def test_cosine_equals_distance_ranking(self, rng):
        idx = _index(rng, 100)
        q = _unit_vectors(rng, 1)[0].astype(np.float64)
        results = knn_exact(q, idx, 5)
        vec = idx.vectors.astype(np.float64)
        dists = np.linalg.norm(vec - q, axis=1)
        by_dist = np.argsort(dists, kind="stable")[:5]
        assert [r.keyword_id for r in results] == [idx.ids[i] for i in by_dist]

    def test_storage_order_invariance(self, rng):
        vectors = _unit_vectors(rng, 50)
        ids = [f"k{i:04d}" for i in range(50)]
        idx1 = EmbeddingIndex(ids=ids, vectors=vectors)
        perm = rng.permutation(50)
        idx2 = EmbeddingIndex(ids=[ids[i] for i in perm], vectors=vectors[perm])
        q = _unit_vectors(rng, 1)[0].astype(np.float64)
        r1 = [(r.keyword_id, r.rank) for r in knn_exact(q, idx1, 10)]
        r2 = [(r.keyword_id, r.rank) for r in knn_exact(q, idx2, 10)]
        assert r1 == r2

    def test_duality_on_results(self, rng):
        idx = _index(rng, 40)
        q = _unit_vectors(rng, 1)[0].astype(np.float64)
        for r in knn_exact(q, idx, 10):
            k = idx.vectors[idx.ids.index(r.keyword_id)].astype(np.float64)
            k = k / np.linalg.norm(k)
            dist_sq = float(((q - k) ** 2).sum())
            assert abs(r.cosine_score - (1.0 - dist_sq / 2.0)) < 1e-6

    def test_non_unit_query_rejected(self, rng):
        idx = _index(rng, 5)
        with pytest.raises(ValueError, match="unit-norm"):
            knn_exact(np.ones(16), idx, 1)
        q = np.full(16, np.nan)
        with pytest.raises(ValueError, match="unit-norm"):
            knn_exact(q, idx, 1)

    def test_ties_straddling_top_n_break_by_ascending_id(self, rng):
        # five rows tie for ranks 2..6; top 4 must take the three smallest of their ids
        best, tied, low = _unit_vectors(rng, 3, 8)
        q = best.astype(np.float64)
        ids = ["t9", "low", "t3", "best", "t7", "t1", "t5"]
        vectors = np.stack([tied, low, tied, best, tied, tied, tied])
        idx = build_graph(EmbeddingIndex(ids=ids, vectors=vectors), 4, 8)
        full_sort = sorted(range(7), key=lambda i: (-float(vectors[i].astype(np.float64) @ q), ids[i]))
        for top_n in (1, 3, 4, 6, 7):
            want = [ids[i] for i in full_sort[:top_n]]
            assert [r.keyword_id for r in knn_exact(q, idx, top_n)] == want
            assert [r.keyword_id for r in knn_approx(q, idx, top_n, search_beam=7)] == want
        assert [r.keyword_id for r in knn_exact(q, idx, 4)] == ["best", "t1", "t3", "t5"]
        assert [r.rank for r in knn_exact(q, idx, 4)] == [1, 2, 3, 4]

    def test_near_ties_are_rescored_in_float64(self):
        # rows nearly orthogonal to q: their scores lie within 1e-7 of 0.0, where the
        # float32 scan's rounding (about 3e-8) reorders them
        rng = np.random.default_rng(0)
        q = rng.standard_normal(64)
        q /= np.linalg.norm(q)
        p = rng.standard_normal((200, 64))
        p -= np.outer(p @ q, q)
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        vectors = (p + rng.uniform(0, 1e-7, (200, 1)) * q).astype(np.float32)
        ids = [f"k{i:03d}" for i in range(200)]
        scores = vectors.astype(np.float64) @ q
        want = sorted(range(200), key=lambda i: (-scores[i], ids[i]))[:5]
        scan = vectors @ q.astype(np.float32)
        assert scan[want].min() < np.sort(scan)[-5]  # the float32 top 5 alone would miss one
        results = knn_exact(q, EmbeddingIndex(ids=ids, vectors=vectors), 5)
        assert [r.keyword_id for r in results] == [ids[i] for i in want]
        assert [r.cosine_score for r in results] == pytest.approx(scores[want], abs=1e-15)


class TestBuildGraph:
    def test_two_nodes_link_both_ways(self, rng):
        idx = _index(rng, 2)
        build_graph(idx, degree_bound=4, build_beam=8)
        assert list(_neighbours(idx, 0)) == [1]
        assert list(_neighbours(idx, 1)) == [0]

    def test_degree_bound_respected(self, rng):
        idx = _index(rng, 200)
        build_graph(idx, degree_bound=6, build_beam=24)
        assert max(len(_neighbours(idx, i)) for i in range(len(idx))) <= 6

    def test_every_node_reachable(self, rng):
        idx = _index(rng, 300)
        build_graph(idx, degree_bound=8, build_beam=32)
        assert len(_reachable(idx)) == 300

    def test_reachable_even_at_degree_one(self, rng):
        idx = _index(rng, 40)
        build_graph(idx, degree_bound=1, build_beam=8)
        assert len(_reachable(idx)) == 40

    def test_deterministic(self, rng):
        vectors = _unit_vectors(rng, 80)
        ids = [f"k{i:04d}" for i in range(80)]
        a = build_graph(EmbeddingIndex(ids=ids, vectors=vectors), 8, 16)
        b = build_graph(EmbeddingIndex(ids=ids, vectors=vectors.copy()), 8, 16)
        for ga, gb in zip(a.graph, b.graph):
            np.testing.assert_array_equal(ga, gb)

    def test_invalid_params(self, rng):
        idx = _index(rng, 5)
        with pytest.raises(ValueError):
            build_graph(idx, degree_bound=0)

    def test_recall_when_every_vector_is_stored_three_times(self, rng):
        vectors = np.repeat(_unit_vectors(rng, 200), 3, axis=0)
        idx = build_graph(EmbeddingIndex(ids=[f"k{i:04d}" for i in range(600)], vectors=vectors), 8, 32)
        recalls = []
        for q in _unit_vectors(rng, 50).astype(np.float64):
            exact = {r.keyword_id for r in knn_exact(q, idx, 10)}
            approx = {r.keyword_id for r in knn_approx(q, idx, 10, search_beam=32)}
            recalls.append(len(exact & approx) / 10)
        assert np.mean(recalls) >= 0.75

    def test_reachable_at_degree_two_on_a_store_of_duplicates(self, rng):
        # the pruned neighbour lists alone leave almost every node unreached
        vectors = np.concatenate([np.repeat(_unit_vectors(rng, 10), 20, axis=0), _unit_vectors(rng, 20)])
        idx = build_graph(EmbeddingIndex(ids=[f"k{i:04d}" for i in range(220)], vectors=vectors), 2, 8)
        assert len(_reachable(idx)) == 220
        assert max(len(_neighbours(idx, i)) for i in range(len(idx))) <= 2

    @pytest.mark.parametrize("n", [0, 1])
    def test_stores_of_zero_and_one_vectors(self, rng, n):
        idx = build_graph(_index(rng, n), 4, 8)
        assert [list(_neighbours(idx, i)) for i in range(n)] == [[]] * n

    def test_build_peak_memory_below_one_and_a_half_stores(self, rng):
        # the reachability walk visits each node once; with repeated ids in a
        # wave it gathered 2.25 stores' worth at this size
        idx = _index(rng, 2000, dim=64)
        tracemalloc.start()
        try:
            build_graph(idx, 16, 64)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * idx.vectors.nbytes, (peak, idx.vectors.nbytes)


class TestKnnApprox:
    def test_requires_graph(self, rng):
        idx = _index(rng, 10)
        with pytest.raises(ValueError, match="no graph"):
            knn_approx(idx.vectors[0].astype(np.float64), idx, 2)

    def test_beam_below_top_n_rejected(self, rng):
        idx = build_graph(_index(rng, 10), 4, 8)
        with pytest.raises(ValueError, match="search_beam"):
            knn_approx(idx.vectors[0].astype(np.float64), idx, 5, search_beam=3)

    def test_exhaustive_beam_matches_exact(self, rng):
        idx = build_graph(_index(rng, 60), 8, 32)
        q = _unit_vectors(rng, 1)[0].astype(np.float64)
        exact = [(r.keyword_id, round(r.cosine_score, 9)) for r in knn_exact(q, idx, 5)]
        approx = [(r.keyword_id, round(r.cosine_score, 9)) for r in knn_approx(q, idx, 5, search_beam=60)]
        assert exact == approx

    def test_self_query_found(self, rng):
        idx = build_graph(_index(rng, 120), 8, 32)
        hits = 0
        for i in range(40):
            r = knn_approx(idx.vectors[i].astype(np.float64), idx, 1, search_beam=16)
            hits += r[0].keyword_id == f"k{i:04d}"
        assert hits >= 39

    def test_distance_counter_counts(self, rng):
        idx = build_graph(_index(rng, 100), 8, 32)
        idx.counters.reset()
        knn_approx(_unit_vectors(rng, 1)[0].astype(np.float64), idx, 5, search_beam=16)
        assert 0 < idx.counters.distance_computations < 100

    def test_recall_on_desk_corpus(self, rng):
        idx = build_graph(_index(rng, 500, dim=32), 16, 64)
        recalls = []
        for _ in range(30):
            q = _unit_vectors(rng, 1, 32)[0].astype(np.float64)
            exact = {r.keyword_id for r in knn_exact(q, idx, 10)}
            approx = {r.keyword_id for r in knn_approx(q, idx, 10, search_beam=64)}
            recalls.append(len(exact & approx) / 10)
        assert np.mean(recalls) >= 0.9


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        idx = build_graph(_index(rng, 50), 8, 16)
        path = tmp_path / "index.bin"
        idx.save(path)
        loaded = EmbeddingIndex.load(path)
        np.testing.assert_array_equal(idx.vectors, loaded.vectors)
        assert idx.ids == loaded.ids
        assert loaded.degree_bound == 8 and loaded.build_beam == 16
        for a, b in zip(idx.graph, loaded.graph):
            np.testing.assert_array_equal(a, b)
        loaded.save(tmp_path / "again.bin")
        assert (tmp_path / "index.bin").read_bytes() == (tmp_path / "again.bin").read_bytes()

    def test_search_identical_after_reload(self, tmp_path, rng):
        idx = build_graph(_index(rng, 80), 8, 32)
        path = tmp_path / "index.bin"
        idx.save(path)
        loaded = EmbeddingIndex.load(path)
        q = _unit_vectors(rng, 1)[0].astype(np.float64)
        before = [(r.keyword_id, r.cosine_score) for r in knn_exact(q, idx, 10)]
        after = [(r.keyword_id, r.cosine_score) for r in knn_exact(q, loaded, 10)]
        assert before == after

    @pytest.mark.parametrize("rows", [[[1], [0, 2], []], None], ids=["short_rows", "no_graph"])
    def test_graph_round_trip(self, tmp_path, rng, rows):
        graph = None if rows is None else _adjacency(rows, 3)
        idx = EmbeddingIndex(ids=list("abc"), vectors=_unit_vectors(rng, 3, 8), graph=graph)
        idx.save(tmp_path / "index.bin")
        loaded = EmbeddingIndex.load(tmp_path / "index.bin")
        assert loaded.degree_bound == idx.degree_bound
        assert (loaded.graph is None) if rows is None else np.array_equal(loaded.graph, graph)


def _joined_index_bytes(index: EmbeddingIndex) -> bytes:
    """TWIX v2 serialized as one joined byte string (the reference layout)."""
    header = {"n": len(index.ids), "dim": index.dim, "metric": METRIC_UNIT,
              "degree_bound": index.degree_bound, "build_beam": index.build_beam,
              "entry_point": index.entry_point}
    chunks = write_preamble(INDEX_MAGIC, INDEX_FORMAT_VERSION, header)
    chunks.append(np.ascontiguousarray(index.vectors, dtype="<f4").tobytes())
    chunks += [pack_str(kid) for kid in index.ids]
    if index.graph is not None:
        chunks.append(np.asarray(index.graph, dtype="<i4").tobytes())
    return b"".join(chunks)


class TestStreamedSave:
    def test_graph_index_bytes_equal_joined_reference(self, tmp_path, rng):
        idx = build_graph(_index(rng, 60), 8, 16)
        idx.save(tmp_path / "index.bin")
        assert (tmp_path / "index.bin").read_bytes() == _joined_index_bytes(idx)

    def test_store_without_graph_equals_joined_reference(self, tmp_path, rng):
        idx = _index(rng, 5)
        idx.save(tmp_path / "store.bin")
        assert (tmp_path / "store.bin").read_bytes() == _joined_index_bytes(idx)

    def test_float64_store_from_a_strided_view_equals_joined_reference(self, tmp_path, rng):
        idx = EmbeddingIndex(ids=list("abcd"), vectors=_normalize_rows(rng.standard_normal((8, 4)))[::2])
        idx.save(tmp_path / "store.bin")
        assert (tmp_path / "store.bin").read_bytes() == _joined_index_bytes(idx)


class TestPinnedBytes:
    def test_graph_index_file_digest(self, tmp_path):
        # the TWIX v2 bytes of a fixed seeded store: builder and writer changes must keep them
        rng = np.random.default_rng(20191208)
        v = rng.standard_normal((2000, 64))
        v = (v / np.linalg.norm(v, axis=1, keepdims=True)).astype(np.float32)
        assert hashlib.sha256(v.tobytes()).hexdigest() == (
            "3348a4c561c52109ea0ada27b66493381ed01d4f47d843e34097b1c90734fc78")
        idx = build_graph(EmbeddingIndex(ids=[f"k{i:04d}" for i in range(2000)], vectors=v), 16, 64)
        assert hashlib.sha256(idx.graph.astype("<i4").tobytes()).hexdigest() == (
            "419cfe7d6c3083ff9f151f4c6da88569e5cfc4b7308d4542211a773055c9b2a7")
        idx.save(tmp_path / "index.twix")
        assert hashlib.sha256((tmp_path / "index.twix").read_bytes()).hexdigest() == (
            "fac3f9b35ca8745d346e54338fea938156553df055058ec84c25d9da0af01c54")


def _payload(data: bytes) -> tuple[int, bytes]:
    """(offset of the payload, raw header JSON) of an index file's bytes."""
    hlen = int.from_bytes(data[8:12], "little")
    return 12 + hlen, data[12 : 12 + hlen]


class TestMalformedIndexFiles:
    def _saved(self, tmp_path, rng, n=20):
        path = tmp_path / "index.bin"
        build_graph(_index(rng, n, dim=8), 4, 8).save(path)
        return path, path.read_bytes()

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path, data = self._saved(tmp_path, rng)
        path.write_bytes(data + b"\x00\x00")
        with pytest.raises(ValueError, match="trailing bytes") as err:
            EmbeddingIndex.load(path)
        assert str(path) in str(err.value)

    def test_nan_row_rejected(self, tmp_path, rng):
        path, data = self._saved(tmp_path, rng)
        start, _ = _payload(data)
        nan = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(data[:start + 32] + nan + data[start + 36:])
        with pytest.raises(ValueError, match="finite") as err:
            EmbeddingIndex.load(path)
        assert str(path) in str(err.value)

    def test_neighbour_id_out_of_range_rejected(self, tmp_path, rng):
        path, data = self._saved(tmp_path, rng)
        path.write_bytes(data[:-4] + (10**6).to_bytes(4, "little"))
        with pytest.raises(ValueError, match="neighbour ids") as err:
            EmbeddingIndex.load(path)
        assert str(path) in str(err.value)

    def test_neighbour_id_reading_as_padding_rejected(self, tmp_path, rng):
        # -1 before a real id: padding out of place must not just make the row look shorter
        path, data = self._saved(tmp_path, rng)
        graph = np.frombuffer(data[-20 * 4 * 4 :], dtype="<i4").reshape(20, 4).copy()
        graph[np.flatnonzero(graph[:, 1] >= 0)[0], 0] = -1
        path.write_bytes(data[: -graph.nbytes] + graph.tobytes())
        with pytest.raises(ValueError, match="neighbour ids") as err:
            EmbeddingIndex.load(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("change", [{"n": -1}, {"n": -2, "dim": -8}, {"n": "20"},
                                        {"entry_point": 20}, {"degree_bound": "16"},
                                        {"degree_bound": True}, {"n": True}])
    def test_bad_header_rejected(self, tmp_path, rng, change):
        path, data = self._saved(tmp_path, rng)
        start, header = _payload(data)
        bad = {**json.loads(header), **change}
        path.write_bytes(b"".join(write_preamble(INDEX_MAGIC, INDEX_FORMAT_VERSION, bad)) + data[start:])
        with pytest.raises(ValueError) as err:
            EmbeddingIndex.load(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("n, width, message", [(3, 10**6, "truncated file"),
                                                   (0, 2**63, "dimension")])
    def test_huge_degree_bound_fails_before_allocating(self, tmp_path, n, width, message):
        # the graph block is read in one bounds-checked read, so the file size bounds the allocation
        header = {"n": n, "dim": 4, "metric": METRIC_UNIT, "degree_bound": width, "build_beam": 8,
                  "entry_point": 0}
        path = tmp_path / "huge.twix"
        path.write_bytes(b"".join([*write_preamble(INDEX_MAGIC, INDEX_FORMAT_VERSION, header),
                                   np.eye(n, 4, dtype="<f4").tobytes(), *(pack_str(f"k{i}") for i in range(n)),
                                   np.full((n, 2), -1, dtype="<i4").tobytes()]))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message) as err:
                EmbeddingIndex.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(path) in str(err.value)
        assert peak < 1 << 20

    def test_version_1_file_rejected(self, tmp_path, rng):
        path, data = self._saved(tmp_path, rng)
        path.write_bytes(data[:4] + (1).to_bytes(4, "little") + data[8:])
        with pytest.raises(ValueError, match="unsupported keyword index format version 1") as err:
            EmbeddingIndex.load(path)
        assert str(path) in str(err.value)

    def test_missing_header_key_rejected(self, tmp_path, rng):
        path, data = self._saved(tmp_path, rng)
        start, header = _payload(data)
        bad = {k: v for k, v in json.loads(header).items() if k != "metric"}
        path.write_bytes(b"".join(write_preamble(INDEX_MAGIC, INDEX_FORMAT_VERSION, bad)) + data[start:])
        with pytest.raises(ValueError, match="'metric' is missing") as err:
            EmbeddingIndex.load(path)
        assert str(path) in str(err.value)


class TestNormalizeRows:
    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            _normalize_rows(np.zeros((2, 4)))

    def test_unit_output(self, rng):
        out = _normalize_rows(rng.standard_normal((10, 8)))
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
