"""Distillation training, actual-label fine-tuning, and the optimizer loop.

The student never sees the teacher's weights: training data is a stream of
(query, keyword, teacher logits, optional label) records. Soft
targets are the temperature-softened teacher probabilities; fine-tuning
first refits the logit calibration to the hard binary targets, then reuses
the same cross-entropy loss with those targets.
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
from .model import TwinModel
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
    neither moment decay nor weight decay. Bias correction counts the steps
    of each parameter. Decay applies to matrices only, not to bias/gain
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

    def step(self, params: dict[str, np.ndarray], grads: dict) -> None:
        for name, g in grads.items():
            if name not in self._m:
                params[name] = np.array(params[name])  # owned: updated in place below
                self._m[name] = np.zeros_like(params[name])
                self._v[name] = np.zeros_like(params[name])
                self._t[name] = 0
            self._t[name] += 1
            p, m, v, t = params[name], self._m[name], self._v[name], self._t[name]
            if isinstance(g, RowGrad):
                rows = g.rows
                m_rows, v_rows = m[rows], v[rows]
                p[rows] = self._updated(p[rows], m_rows, v_rows, g.values, t)
                m[rows], v[rows] = m_rows, v_rows
            else:
                p[...] = self._updated(p, m, v, g, t)

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
    # (a, b) folded into the head before fine-tuning; None when not refitted
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
    history = TrainingHistory()
    if epochs == 0:
        return history
    optimizer = AdamW(lr=lr, weight_decay=config.weight_decay)
    shuffle_rng = np.random.default_rng([seed, 0xDA7A])
    dropout_rng = np.random.default_rng([seed, 0xD120])

    n = len(records)
    seqs = model.tokenize_many([r.query for r in records] + [r.keyword for r in records])
    q_seqs, k_seqs = seqs[:n], seqs[n:]
    bs = config.batch_size
    for epoch in range(epochs):
        order = shuffle_rng.permutation(n)
        losses = []
        for lo in range(0, n, bs):
            idx = order[lo : lo + bs]
            loss, grads = pair_loss_and_grads(model, [q_seqs[i] for i in idx],
                                              [k_seqs[i] for i in idx], targets[idx],
                                              model.config.crossing, rng=dropout_rng)
            optimizer.step(model.params, grads)
            del grads  # else the next step's forward and backward run with it still held
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, step {history.steps}: {loss}"
                )
            losses.append(loss * len(idx))
            history.steps += 1
        epoch_loss = float(np.sum(losses) / n)
        history.epoch_losses.append(epoch_loss)
        logger.info("epoch %d/%d  mean loss %.6f", epoch + 1, epochs, epoch_loss)
    return history


def distill_train(records: list[PairRecord], config: DistillationConfig,
                  model: TwinModel, seed: int = 0) -> TrainingHistory:
    """Train the student against temperature-softened teacher targets.

    Every record must carry teacher logits. The per-epoch loss recorded in
    the history is the mean per-pair cross-entropy. Deterministic given the
    seed and record order.
    """
    if not records:
        raise ValueError("distillation requires a non-empty record stream")
    missing = [i for i, r in enumerate(records) if r.teacher_logits is None]
    if missing:
        raise ValueError(f"record {missing[0]} has no teacher logits")
    targets = np.asarray(
        [soft_label(r.teacher_logits, config.temperature)[1] for r in records]
    )
    return _run_epochs(model, records, targets, config.learning_rate,
                       config.epochs, config, seed)


def fit_logit_calibration(logits, labels) -> tuple[float, float] | None:
    """Maximum-likelihood (a, b) of ``labels ~ sigmoid(a * logits + b)``.

    Damped Newton's method from the identity (a, b) = (1, 0). Every accepted
    step lowers the mean cross-entropy, so the fit never scores the labels
    worse than the logits as given. Returns None when no finite optimum with
    a > 0 exists: labels of one class only, constant logits, logits that
    separate the two classes (the optimum lies at infinity), a fitted scale
    a <= 0, or no convergence within 100 Newton steps.
    """
    z = np.asarray(logits, dtype=np.float64).ravel()
    y = np.asarray(labels, dtype=np.float64).ravel()
    if z.shape != y.shape:
        raise ValueError(f"logits and labels differ in shape: {z.shape} vs {y.shape}")
    if not np.all(np.isfinite(z)):
        return None
    pos, neg = z[y == 1.0], z[y == 0.0]
    # a finite optimum exists iff the two classes overlap on the logit line
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
            a, b = float(theta[0]), float(theta[1])
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


def refit_calibration(records: list[PairRecord], model: TwinModel,
                      batch_size: int = 64) -> tuple[float, float] | None:
    """Refit the active head's logit calibration to the records' hard labels.

    Scores every record with dropout off, fits (a, b) with
    ``fit_logit_calibration`` and folds the fit into the head's final
    affine layer, so each logit z becomes a*z + b:

    - residual head: ``w_out <- a*w_out``, ``b_out <- a*b_out + b``
    - cosine head: ``scale <- a*scale``, ``bias <- a*bias + b``

    With a > 0 no ranking changes. Returns the fitted (a, b), or None with
    the model untouched when the fit has no finite optimum with a > 0.
    """
    labels = np.asarray([float(r.binary()) for r in records])
    logits = []
    for lo in range(0, len(records), batch_size):
        chunk = records[lo : lo + batch_size]
        q_emb = model.encode_queries([r.query for r in chunk])
        k_emb = model.encode_keywords([r.keyword for r in chunk])
        logits.append(crossing.head_forward(model.config.crossing, q_emb, k_emb, model.params)[0])
    fit = fit_logit_calibration(np.concatenate(logits), labels)
    if fit is None:
        return None
    a, b = fit
    weight, bias = crossing.CALIBRATION[model.config.crossing]
    model.params[weight] = np.asarray(a * model.params[weight])
    model.params[bias] = np.asarray(a * model.params[bias] + b)
    return fit


def finetune(records: list[PairRecord], config: DistillationConfig,
             model: TwinModel, seed: int = 0) -> TrainingHistory:
    """Post-distillation round on hard binary labels at a reduced rate.

    A student distilled on targets softened at temperature T emits logits
    on the softened scale, which is mis-calibrated for hard labels: at desk
    scale a logistic fit of the student's logit to the hard training labels
    gives a = 1.73, b = +2.28. AdamW at the fine-tune rate moves the head's
    output bias by only about the learning rate per step, so without a
    refit that shift travels through the shared encoder weights instead,
    unevenly per query, and held-out AUC fell (0.9745 -> 0.9707). So when
    ``finetune_epochs > 0`` the calibration is first refitted and folded
    into the head (``refit_calibration``, which changes no ranking), and
    then the epochs run. The fitted (a, b) are logged and go to
    ``history.calibration``, which is None when the refit is skipped for
    want of a finite optimum with a > 0. With zero epochs the model is left
    bit-identical.
    """
    if not records:
        raise ValueError("fine-tuning requires a non-empty record stream")
    targets = np.asarray([float(r.binary()) for r in records])
    calibration = None
    if config.finetune_epochs > 0:
        calibration = refit_calibration(records, model, config.batch_size)
        if calibration is None:
            logger.info("calibration refit skipped: no finite optimum with a > 0")
        else:
            logger.info("calibration refit  a %.6f  b %+.6f", *calibration)
    history = _run_epochs(model, records, targets, config.finetune_learning_rate,
                          config.finetune_epochs, config, seed + 1)
    history.calibration = calibration
    return history


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
