"""Distillation training, actual-label fine-tuning, and the optimizer loop.

The student never sees the teacher's weights: training data is a stream of
(query, keyword, teacher logits, optional label) records. Distillation's
targets are the temperature-softened teacher probabilities, fine-tuning's
the hard binary labels. Both phases run the same steps: refit the head's
logit calibration to the phase's targets, then minimize the same
cross-entropy against them.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from numbers import Real
from pathlib import Path

import numpy as np

from . import crossing, textio
from .config import DistillationConfig
from .encoder import RowGrad, pack_sequences, sigmoid
from .metrics import binary_label
from .model import SERVING_DTYPE, SERVING_TOLERANCE, TwinModel
from .text import encodable

logger = logging.getLogger(__name__)

_CE_EPS = 1e-12
# Adam's own moment decays and denominator floor (Kingma & Ba, ICLR 2015)
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """Raised when the loss goes non-finite; carries epoch/step context."""


@dataclass(slots=True)
class PairRecord:
    """One labelled pair: a query/keyword pair with teacher logits and/or a label.

    ``label`` is the label cell as a pair TSV holds it: a grade
    (bad/fair/good/excellent) or 0/1, checked against ``metrics.binary_label``.
    ``teacher_logits`` must be two finite numbers, kept as Python floats.
    ``query`` and ``keyword`` hold no tab, CR or LF, so each record is one
    pair-TSV row, and each normalizes to at least one word (``text.encodable``).
    """

    query: str
    keyword: str
    teacher_logits: tuple[float, float] | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        both = self.query + self.keyword  # one scan of both texts; generate_pairs builds many records
        if "\t" in both or "\n" in both or "\r" in both:
            name = "query" if any(c in self.query for c in "\t\n\r") else "keyword"
            raise ValueError(f"{name} {getattr(self, name)!r} holds a tab or a line break")
        encodable(self.query, "query")
        encodable(self.keyword, "keyword")
        if self.teacher_logits is not None:
            self.teacher_logits = _logit_pair(self.teacher_logits)
        if self.label is not None:
            binary_label(self.label)
        elif self.teacher_logits is None:
            raise ValueError("a pair record needs teacher logits or a label")

    def binary(self) -> int:
        """Hard label: bad and 0 map to 0, every other grade and 1 to 1."""
        if self.label is None:
            raise ValueError("record has no label")
        return binary_label(self.label)


def _logit_pair(z) -> tuple[float, float]:
    """``z`` as two Python floats; anything but two finite numbers is an error."""
    try:
        z_bad, z_nonbad = z
        # a float is a Real; testing it first skips the ABC check for the
        # floats nearly every caller passes
        ok = ((isinstance(z_bad, float) or isinstance(z_bad, Real))
              and (isinstance(z_nonbad, float) or isinstance(z_nonbad, Real))
              and math.isfinite(z_bad) and math.isfinite(z_nonbad))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"teacher_logits must be two finite numbers, got {z!r}")
    return (float(z_bad), float(z_nonbad))


def soft_label(z: tuple[float, float], temperature: float) -> tuple[float, float]:
    """Temperature-softened probability pair from a teacher logit pair.

    y_i = exp(z_i / T) / sum_j exp(z_j / T), stabilized by max subtraction.
    T = 1 recovers the plain softmax; larger T flattens the distribution.
    """
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    z = np.asarray(z, dtype=np.float64) / temperature
    z = z - z.max()
    e = np.exp(z)
    p = e / e.sum()
    return (float(p[0]), float(p[1]))


def ce_loss(targets, predictions) -> float:
    """Binary cross-entropy summed over the batch.

    Accepts soft targets in [0, 1]; predictions are clamped away from the
    endpoints by 1e-12 before the logs.
    """
    y = np.asarray(targets, dtype=np.float64)
    p = np.asarray(predictions, dtype=np.float64)
    if y.shape != p.shape:
        raise ValueError(f"targets and predictions differ in shape: {y.shape} vs {p.shape}")
    p = np.clip(p, _CE_EPS, 1.0 - _CE_EPS)
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).sum())


class AdamW:
    """Adam with decoupled L2 weight decay, lazy over the rows of a table.

    State is created lazily per parameter, and a step touches only the
    parameters that received a gradient: parameters with no gradient this
    step stay bit-identical (weight decay included). A row-sparse gradient
    (:class:`RowGrad`) extends that to rows, as in lazy Adam: a table row
    with no gradient this step keeps its value and both moments, so it gets
    neither moment decay nor weight decay. Moments exist only for rows that
    have had a gradient: a table's ``m`` and ``v`` hold one row per such row,
    found through a row -> slot map, and a row's first gradient gives it zero
    moments, as a dense zero table would. Against dense moment tables this
    cut the benchmark's train ``peak_rss_mb`` from 59.5 to 58.0 MB at the
    desk preset, and one large-preset epoch from 1,048 to 769 MB
    (``BENCH_adam_state.json``). Bias correction counts the steps of each
    parameter. Decay applies to matrices only, not to bias/gain
    vectors or scalars. The moment decays and the denominator floor are
    the module constants ``BETA1``, ``BETA2`` and ``ADAM_EPS``.

    Parameters are updated in place, on a copy that the optimizer makes when
    it creates the parameter's state, so an array shared with another model
    (``cast_params`` keeps arrays whose dtype already matches) is never
    written through.
    """

    def __init__(self, lr: float, weight_decay: float):
        self.lr = lr
        self.weight_decay = weight_decay
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}
        # a table's row -> its row of the table's _m/_v, -1 before its first gradient
        self._slot: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict) -> None:
        for name, g in grads.items():
            if name not in self._m:
                p = params[name] = np.array(params[name])  # owned: updated in place below
                if isinstance(g, RowGrad):
                    self._slot[name] = np.full(len(p), -1)
                    p = p[:0]  # no moment rows yet
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
                self._t[name] = 0
            self._t[name] += 1
            p, t = params[name], self._t[name]
            if isinstance(g, RowGrad):
                rows, slot = g.rows, self._slot[name]
                new = rows[slot[rows] < 0]
                if len(new):  # a row's first gradient: zero moments, as a dense table starts
                    n = len(self._m[name])
                    slot[new] = np.arange(n, n + len(new))
                    zeros = np.zeros((len(new), *p.shape[1:]), p.dtype)
                    self._m[name] = np.concatenate([self._m[name], zeros])
                    self._v[name] = np.concatenate([self._v[name], zeros])
                m, v, s = self._m[name], self._v[name], slot[rows]
                m_rows, v_rows = m[s], v[s]
                p[rows] = self._updated(p[rows], m_rows, v_rows, g.values, t)
                m[s], v[s] = m_rows, v_rows
            else:
                p[...] = self._updated(p, self._m[name], self._v[name], g, t)

    def _updated(self, p: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray,
                 t: int) -> np.ndarray:
        """New value of ``p`` after step ``t``; advances the moments ``m`` and ``v`` in place."""
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        m_hat = m / (1.0 - BETA1**t)
        v_hat = v / (1.0 - BETA2**t)
        update = m_hat / (np.sqrt(v_hat) + ADAM_EPS)
        if self.weight_decay > 0.0 and p.ndim >= 2:
            update = update + self.weight_decay * p
        return p - self.lr * update


@dataclass
class TrainingHistory:
    epoch_losses: list[float] = field(default_factory=list)
    steps: int = 0
    # (a, b) folded into the head before the epochs; None when not refitted
    calibration: tuple[float, float] | None = None


def pair_loss_and_grads(model: TwinModel, q_seqs, k_seqs, targets, head: str, *, rng):
    """Mean binary CE of a batch of pairs through both encoders and ``head``,
    and its gradients. Both forwards are training forwards: they draw dropout
    from ``rng`` (nothing at rate 0) and keep their caches. Each tower's
    backward consumes its forward cache, the query tower's first."""
    qb = pack_sequences(q_seqs)
    kb = pack_sequences(k_seqs)
    q_emb, q_cache = model.encode_query_batch(qb, rng=rng)
    k_emb, k_cache = model.encode_keyword_batch(kb, rng=rng)
    logits, hcache = crossing.head_forward(head, q_emb, k_emb, model.params)
    probs = sigmoid(logits)
    n = len(targets)
    loss = ce_loss(targets, probs) / n

    grads: dict[str, np.ndarray] = {}
    d_logits = (probs - targets) / n  # fused sigmoid + mean binary CE
    dq, dk = crossing.head_backward(head, d_logits, hcache, model.params, grads)
    model.backward_query(dq, q_cache, qb, grads)
    model.backward_keyword(dk, k_cache, kb, grads)
    return loss, grads


def _run_epochs(model: TwinModel, records: list[PairRecord], targets: np.ndarray,
                lr: float, epochs: int, config: DistillationConfig, seed: int) -> TrainingHistory:
    """One phase: tokenize once, refit the head to ``targets`` (``refit_calibration``,
    recorded in ``history.calibration``), run the epochs. Zero epochs change nothing."""
    if not records:
        raise ValueError("training requires a non-empty record stream")
    history = TrainingHistory()
    if epochs == 0:
        return history
    n = len(records)
    seqs = model.tokenize_many([r.query for r in records] + [r.keyword for r in records])
    q_seqs, k_seqs = seqs[:n], seqs[n:]
    bs = config.batch_size
    history.calibration = refit_calibration(model, q_seqs, k_seqs, targets, bs)
    optimizer = AdamW(lr=lr, weight_decay=config.weight_decay)
    shuffle_rng = np.random.default_rng([seed, 0xDA7A])
    dropout_rng = np.random.default_rng([seed, 0xD120])
    for epoch in range(epochs):
        order = shuffle_rng.permutation(n)
        losses = []
        for lo in range(0, n, bs):
            idx = order[lo : lo + bs]
            loss, grads = pair_loss_and_grads(model, [q_seqs[i] for i in idx],
                                              [k_seqs[i] for i in idx], targets[idx],
                                              model.config.crossing, rng=dropout_rng)
            if not np.isfinite(loss):  # before the step, so the model keeps its last finite state
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, step {history.steps}: {loss}"
                )
            optimizer.step(model.params, grads)
            del grads  # else the next step's forward and backward run with it still held
            losses.append(loss * len(idx))
            history.steps += 1
        epoch_loss = float(np.sum(losses) / n)
        history.epoch_losses.append(epoch_loss)
        logger.info("epoch %d/%d  mean loss %.6f", epoch + 1, epochs, epoch_loss)
    return history


def first_lacking(records: list[PairRecord], field: str) -> int | None:
    """Index of the first record whose ``field`` (``teacher_logits`` or ``label``) is None."""
    return next((i for i, r in enumerate(records) if getattr(r, field) is None), None)


def distill_train(records: list[PairRecord], config: DistillationConfig,
                  model: TwinModel, seed: int = 0) -> TrainingHistory:
    """Train the student against temperature-softened teacher targets.

    Every record must carry teacher logits. The per-epoch loss recorded in
    the history is the mean per-pair cross-entropy. Deterministic given the
    seed and record order.
    """
    if (missing := first_lacking(records, "teacher_logits")) is not None:
        raise ValueError(f"record {missing} has no teacher logits")
    targets = np.asarray([soft_label(r.teacher_logits, config.temperature)[1] for r in records])
    return _run_epochs(model, records, targets, config.learning_rate,
                       config.epochs, config, seed)


def fit_logit_calibration(logits, targets) -> tuple[float, float] | None:
    """Maximum-likelihood (a, b) of ``targets ~ sigmoid(a * logits + b)``, targets in [0, 1].

    Damped Newton's method from the identity (a, b) = (1, 0). Every accepted
    step lowers the mean cross-entropy, so the fit never scores the targets
    worse than the logits as given. Once half the squared Newton decrement
    is at most 1e-12, well inside Newton's quadratic region, one last full
    step takes the gradient down to rounding. Returns None when no finite
    optimum with a > 0 exists: one threshold on the logits parts the targets
    above 0 from those below 1 (0/1 labels of one class, or separable;
    constant logits), a fitted scale a <= 0, or no convergence within 100
    Newton steps.
    """
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(targets, dtype=np.float64).ravel()
    if z.shape != y.shape:
        raise ValueError(f"logits and targets differ in shape: {z.shape} vs {y.shape}")
    if not np.all(np.isfinite(z)):
        return None
    pos, neg = z[y > 0.0], z[y < 1.0]
    # a finite optimum exists iff those two sets overlap on the logit line
    if pos.size == 0 or neg.size == 0 or not (pos.min() < neg.max() and neg.min() < pos.max()):
        return None

    x = np.stack([z, np.ones_like(z)], axis=1)

    def mean_ce(theta: np.ndarray) -> float:
        s = x @ theta
        return float(np.mean(np.logaddexp(0.0, s) - y * s))

    theta = np.array([1.0, 0.0])
    loss = mean_ce(theta)
    for _ in range(100):
        p = sigmoid(x @ theta)
        grad = x.T @ (p - y) / z.size
        hess = (x * (p * (1.0 - p))[:, None]).T @ x / z.size
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return None
        decrement = float(grad @ step)  # squared Newton decrement
        if not np.isfinite(decrement):
            return None
        if decrement / 2.0 <= 1e-12:
            a, b = (float(v) for v in theta - step)  # the last, full step
            return (a, b) if a > 0.0 else None
        t = 1.0
        while t > 1e-10:  # backtrack until the Armijo condition holds
            candidate = theta - t * step
            c_loss = mean_ce(candidate)
            if c_loss <= loss - 1e-4 * t * decrement:
                break
            t *= 0.5
        else:
            return None
        theta, loss = candidate, c_loss
    return None


def _logits(model: TwinModel, q_seqs, k_seqs, batch_size: int) -> np.ndarray:
    """The active head's logits of the tokenized pairs, ``batch_size`` at a time, dropout off."""
    return np.concatenate([crossing.head_forward(
        model.config.crossing,
        model.encode_query_batch(pack_sequences(q_seqs[lo : lo + batch_size]))[0],
        model.encode_keyword_batch(pack_sequences(k_seqs[lo : lo + batch_size]))[0],
        model.params)[0] for lo in range(0, len(q_seqs), batch_size)])


def refit_calibration(model: TwinModel, q_seqs, k_seqs, targets,
                      batch_size: int) -> tuple[float, float] | None:
    """Refit the active head's logit calibration to ``targets`` in [0, 1].

    Scores the tokenized pairs (``q_seqs[i]``, ``k_seqs[i]``) in chunks of
    ``batch_size`` with dropout off, fits (a, b) with
    ``fit_logit_calibration`` and folds the fit into the head's final
    affine layer, so each logit z becomes a*z + b:

    - residual head: ``w_out <- a*w_out``, ``b_out <- a*b_out + b``
    - cosine head: ``scale <- a*scale``, ``bias <- a*bias + b``

    With a > 0 no ranking changes. Returns the fitted (a, b), or None with
    the model untouched when the fit has no finite optimum with a > 0, or
    when the folded model served in ``SERVING_DTYPE`` would score one of the
    pairs more than ``SERVING_TOLERANCE`` from its float64 probability (a
    huge a amplifies float32 rounding).
    """
    z = _logits(model, q_seqs, k_seqs, batch_size)
    fit = fit_logit_calibration(z, targets)
    if fit is None:
        logger.info("calibration refit skipped: no finite optimum with a > 0")
        return None
    a, b = fit
    weight, bias = crossing.CALIBRATION[model.config.crossing]
    folded = {weight: np.asarray(a * model.params[weight]), bias: np.asarray(a * model.params[bias] + b)}
    served = TwinModel(model.config, {**model.params, **folded}).cast(SERVING_DTYPE)
    error = np.abs(sigmoid(_logits(served, q_seqs, k_seqs, batch_size)) - sigmoid(a * z + b)).max()
    if error > SERVING_TOLERANCE:
        logger.info("calibration refit skipped: served, a %.6f b %+.6f would move a probability by %.2g",
                    a, b, error)
        return None
    model.params.update(folded)
    logger.info("calibration refit  a %.6f  b %+.6f", a, b)
    return fit


def finetune(records: list[PairRecord], config: DistillationConfig,
             model: TwinModel, seed: int = 0) -> TrainingHistory:
    """Post-distillation round on hard binary labels at a reduced rate.

    Every record must carry a label. The refit that starts the phase folds
    the shift from the softened scale to the hard labels into the head.
    """
    if (missing := first_lacking(records, "label")) is not None:
        raise ValueError(f"record {missing} has no label")
    targets = np.asarray([float(r.binary()) for r in records])
    return _run_epochs(model, records, targets, config.finetune_learning_rate,
                       config.finetune_epochs, config, seed + 1)


# ---------------------------------------------------------------------------
# TSV pair files
# ---------------------------------------------------------------------------

PAIR_TSV_COLUMNS = ("query", "keyword", "z_bad", "z_nonbad", "label")


def load_pair_tsv(path: str | Path) -> list[PairRecord]:
    """Read pair records from a headered TSV file.

    Columns, found by name: query, keyword, z_bad, z_nonbad and an optional
    label. Both logit cells may be empty when only a label is available, and
    the label may be empty when logits are; one logit without the other is
    an error. The label column holds one of bad/fair/good/excellent or 0/1,
    kept as written in ``PairRecord.label``, and a row may leave it out.
    Lines starting with ``#`` are ignored. Malformed rows abort with their
    line number.
    """
    table = textio.read_table(path, last_optional=True)
    columns = [table.index(name) for name in PAIR_TSV_COLUMNS[:4]]
    li = table.index("label") if "label" in table.header else None
    records: list[PairRecord] = []
    for lineno, cells in table.rows:
        query, keyword, z_bad, z_nonbad = (cells[i] for i in columns)
        label = "" if li is None else cells[li].strip()
        try:
            if bool(z_bad) != bool(z_nonbad):
                empty, filled = ("z_bad", "z_nonbad") if z_nonbad else ("z_nonbad", "z_bad")
                raise ValueError(f"{empty} is empty but {filled} is not")
            logits = (float(z_bad), float(z_nonbad)) if z_bad else None
            records.append(PairRecord(query=query, keyword=keyword, teacher_logits=logits,
                                      label=label or None))
        except ValueError as exc:
            raise table.error(lineno, f"malformed row: {exc}") from None
    return records


def pair_tsv_rows(records: list[PairRecord]):
    """The header and rows of ``records`` as a pair TSV, for ``textio.write_tsv``."""
    yield PAIR_TSV_COLUMNS
    for r in records:
        z_bad = repr(r.teacher_logits[0]) if r.teacher_logits else ""
        z_nonbad = repr(r.teacher_logits[1]) if r.teacher_logits else ""
        yield r.query, r.keyword, z_bad, z_nonbad, r.label or ""


def save_pair_tsv(path: str | Path, records: list[PairRecord]) -> None:
    """Write ``records`` as a pair TSV that ``load_pair_tsv`` reads back equal.
    A query starting with ``#`` is refused by ``textio.write_tsv``, which
    writes nothing: its row would read back as a comment."""
    textio.write_tsv(path, pair_tsv_rows(records))
