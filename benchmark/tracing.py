"""Spans recorded around the calls into each twinenc layer.

A traced phase replaces library functions with timing wrappers at the
attribute each caller looks them up through, and restores them when the
phase ends; nothing in ``src/twinenc`` is modified. Callers resolve the
functions in three ways, so the wrappers go to three kinds of place:

- ``model.py`` and ``training.py`` import ``pack_sequences``,
  ``encoder_forward`` and ``encoder_backward`` by name, so those names are
  replaced in the importing modules;
- ``encoder_forward`` looks up ``embed_forward``, ``layer_forward`` and
  ``pool_forward`` as globals of ``twinenc.encoder``;
- ``model.py`` and ``training.py`` call the heads as ``crossing.*``
  attributes, and the model's own methods are replaced on the instance.

Spans stay in memory until the run ends. Each records a name, start, end,
the index of its parent span and the id of the operation (request or
training step) it belongs to.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from twinenc import crossing as crossing_mod
from twinenc import encoder as encoder_mod
from twinenc import model as model_mod
from twinenc import training as training_mod

NO_PARENT = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    request_id: int
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "name", "attrs", "index")

    def __init__(self, tracer: Tracer, name: str, attrs: dict | None):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> Span:
        self.index = self.tracer.open(self.name, self.attrs)
        return self.tracer.spans[self.index]

    def __exit__(self, *exc) -> None:
        self.tracer.close(self.index)


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request_id = -1
        self._stack: list[int] = []
        self.origin = perf_counter()

    def open(self, name: str, attrs: dict | None = None) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else NO_PARENT
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self.request_id, attrs))
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = perf_counter()
        self._stack.pop()

    def span(self, name: str, attrs: dict | None = None) -> _Open:
        return _Open(self, name, attrs)

    def request(self, request_id: int, attrs: dict | None = None) -> _Open:
        """Root span of one operation; spans opened inside share its id."""
        self.request_id = request_id
        return _Open(self, "request", attrs)

    def wrap(self, name, fn, note=None):
        """``fn`` timed as a span; ``name`` may be a function of the call's args.

        ``note(args, result)`` returns attributes stored on the span.
        """

        def wrapper(*args, **kwargs):
            index = self.open(name(args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if note is not None:
                self.spans[index].attrs = note(args, result)
            return result

        return wrapper

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent, "request_id": s.request_id,
                    "start_s": s.start - self.origin, "end_s": s.end - self.origin,
                    "attrs": s.attrs,
                }) + "\n")


class NullTracer:
    """Stands in for a tracer in untraced phases; records nothing."""

    def span(self, name: str, attrs: dict | None = None):
        return _NULL_SPAN

    def request(self, request_id: int, attrs: dict | None = None):
        return _NULL_SPAN


class _NullSpan:
    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()
NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

def _layer_name(args) -> str:
    # layer_forward(x, mask, params, "<prefix>.layers.<i>", config, ...)
    return "encoder.layer." + args[3].rsplit(".", 1)[1]


def _pack_rows(args, batch) -> dict:
    return {"real_rows": int(batch.mask.sum()), "rows": int(batch.mask.size)}


class Instrumentation:
    """Timing wrappers on every measured layer entry point, while installed.

    Used as a context manager, or installed and removed repeatedly to
    alternate traced and untraced blocks of work.
    """

    def __init__(self, tracer: Tracer, model):
        self.model = model
        pack = tracer.wrap("encoder.pack", encoder_mod.pack_sequences, _pack_rows)
        self.module_patches = [
            (encoder_mod, "pack_sequences", pack),
            (model_mod, "pack_sequences", pack),
            (training_mod, "pack_sequences", pack),
            (encoder_mod, "embed_forward", tracer.wrap("encoder.embed", encoder_mod.embed_forward)),
            (encoder_mod, "layer_forward", tracer.wrap(_layer_name, encoder_mod.layer_forward)),
            (encoder_mod, "pool_forward", tracer.wrap("encoder.pool", encoder_mod.pool_forward)),
            (model_mod, "encoder_backward",
             tracer.wrap("encoder.backward", model_mod.encoder_backward)),
        ]
        for head in ("cosine", "residual"):
            for fn in ("head_prob", "head_forward", "head_backward"):
                attr = f"{head}_{fn}"
                self.module_patches.append(
                    (crossing_mod, attr, tracer.wrap(f"crossing.{head}", getattr(crossing_mod, attr)))
                )
        self.originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self.module_patches]
        self.method_patches = [
            (attr, tracer.wrap(name, getattr(model, attr)))
            for attr, name in (
                ("tokenize", "text.tokenize"),
                ("encode_query_batch", "model.encode_query"),
                ("encode_keyword_batch", "model.encode_keyword"),
                ("score_embeddings", "model.score"),
                ("backward_query", "model.backward"),
                ("backward_keyword", "model.backward"),
            )
        ]
        self.installed = False

    def install(self) -> None:
        for mod, attr, wrapper in self.module_patches:
            setattr(mod, attr, wrapper)
        for attr, wrapper in self.method_patches:
            setattr(self.model, attr, wrapper)
        self.installed = True

    def remove(self) -> None:
        for mod, attr, original in self.originals:
            setattr(mod, attr, original)
        for attr, _ in self.method_patches:
            self.model.__dict__.pop(attr, None)
        self.installed = False

    def __enter__(self) -> Instrumentation:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

@dataclass
class SpanTotals:
    """Per-name totals in seconds over a list of spans."""

    self_s: dict[str, float] = field(default_factory=dict)
    inclusive_s: dict[str, float] = field(default_factory=dict)
    real_rows: int = 0
    rows: int = 0

    def self_of(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def inclusive_of(self, name: str) -> float:
        return self.inclusive_s.get(name, 0.0)


def self_seconds(spans: list[Span], start: int = 0) -> dict[int, float]:
    """Self time of each span in ``spans[start:]``, by index: its duration
    minus the time its child spans cover."""
    own = {i: spans[i].duration for i in range(start, len(spans))}
    for i in range(start, len(spans)):
        parent = spans[i].parent
        if parent != NO_PARENT:
            own[parent] -= spans[i].duration
    return own


def totals(spans: list[Span], start: int = 0) -> SpanTotals:
    """Per-name totals over ``spans[start:]``."""
    out = SpanTotals()
    for i, own in self_seconds(spans, start).items():
        s = spans[i]
        out.self_s[s.name] = out.self_s.get(s.name, 0.0) + own
        out.inclusive_s[s.name] = out.inclusive_s.get(s.name, 0.0) + s.duration
        if s.name == "encoder.pack" and s.attrs:
            out.real_rows += s.attrs["real_rows"]
            out.rows += s.attrs["rows"]
    return out


def crossing_slope_us(spans: list[Span]) -> float:
    """Least-squares crossing time per keyword, in microseconds.

    Each request span carries its keyword count ``k``; the crossing time of
    a request is the self time of its ``crossing.*`` spans. Zero when fewer
    than two distinct keyword counts were traced.
    """
    crossing_s: dict[int, float] = {}
    ks: dict[int, int] = {}
    for i, own in self_seconds(spans).items():
        s = spans[i]
        if s.name.startswith("crossing."):
            crossing_s[s.request_id] = crossing_s.get(s.request_id, 0.0) + own
        elif s.name == "request" and s.attrs and "k" in s.attrs:
            ks[s.request_id] = s.attrs["k"]
    pairs = [(ks[r], t) for r, t in crossing_s.items() if r in ks]
    if len({k for k, _ in pairs}) < 2:
        return 0.0
    slope, _ = np.polyfit(*np.asarray(pairs, dtype=np.float64).T, 1)
    return float(slope * 1e6)
