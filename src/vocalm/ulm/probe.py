"""Pooled-feature probe: three shrinking fully-connected layers, each with
layer normalization and ReLU, then a linear head. Trained with Adam and a
polynomial learning-rate decay on a class-balanced 90/10 split."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .nn import Adam, cross_entropy, layernorm_backward, layernorm_forward, linear_backward, linear_forward

DEFAULT_HIDDEN = (128, 64, 32)
DEFAULT_EPOCHS = 20
DEFAULT_LR = 1e-3
DEFAULT_BATCH = 32
VAL_FRACTION = 0.1


class ProbeClassifier:
    def __init__(self, in_dim: int, n_classes: int, hidden=DEFAULT_HIDDEN, seed: int = 0):
        if n_classes < 2:
            raise ValueError("probe needs at least 2 classes")
        if not all(a > b for a, b in zip(hidden, hidden[1:])):
            raise ValueError(f"hidden widths must decrease, got {hidden}")
        self.in_dim = in_dim
        self.n_classes = n_classes
        self.hidden = tuple(hidden)
        rng = np.random.default_rng(seed)
        dims = [in_dim, *hidden]
        p: dict[str, np.ndarray] = {}
        for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
            p[f"w{i}"] = rng.normal(0.0, np.sqrt(2.0 / d_in), size=(d_in, d_out))
            p[f"b{i}"] = np.zeros(d_out)
            p[f"g{i}"] = np.ones(d_out)
            p[f"beta{i}"] = np.zeros(d_out)
        p["w_out"] = rng.normal(0.0, np.sqrt(1.0 / dims[-1]), size=(dims[-1], n_classes))
        p["b_out"] = np.zeros(n_classes)
        self.params = p

    def _forward(self, x: np.ndarray):
        cache = []
        h = x
        for i in range(len(self.hidden)):
            z, _ = linear_forward(h, self.params[f"w{i}"], self.params[f"b{i}"])
            ln, ln_cache = layernorm_forward(z, self.params[f"g{i}"], self.params[f"beta{i}"])
            a = np.maximum(ln, 0.0)
            cache.append((h, ln, ln_cache))
            h = a
        logits, _ = linear_forward(h, self.params["w_out"], self.params["b_out"])
        return logits, (cache, h)

    def _backward(self, dlogits: np.ndarray, cache) -> dict:
        layer_caches, h_last = cache
        grads: dict[str, np.ndarray] = {}
        dh, grads["w_out"], grads["b_out"] = linear_backward(dlogits, h_last, self.params["w_out"])
        for i in reversed(range(len(self.hidden))):
            h_in, ln, ln_cache = layer_caches[i]
            dln = dh * (ln > 0)
            dz, grads[f"g{i}"], grads[f"beta{i}"] = layernorm_backward(dln, ln_cache)
            dh, grads[f"w{i}"], grads[f"b{i}"] = linear_backward(dz, h_in, self.params[f"w{i}"])
        return grads

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        logits, _ = self._forward(np.asarray(x, dtype=np.float64))
        return logits

    def predict(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(self.predict_logits(x), axis=-1)


@dataclass(frozen=True)
class ProbeTrainResult:
    classifier: ProbeClassifier
    val_metrics: tuple
    train_idx: np.ndarray = field(repr=False)
    val_idx: np.ndarray = field(repr=False)


def _as_matrix(embeddings) -> np.ndarray:
    return np.stack([np.asarray(e, dtype=np.float64) for e in embeddings])


def stratified_split(labels: np.ndarray, val_fraction: float, rng) -> tuple[np.ndarray, np.ndarray]:
    """Class-balanced split; every class keeps at least one validation item."""
    train, val = [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = rng.permutation(idx)
        n_val = max(1, int(round(val_fraction * idx.shape[0])))
        val.extend(idx[:n_val].tolist())
        train.extend(idx[n_val:].tolist())
    return np.array(sorted(train)), np.array(sorted(val))


def train_probe(
    embeddings,
    labels,
    epochs: int = DEFAULT_EPOCHS,
    seed: int = 0,
    hidden=DEFAULT_HIDDEN,
    lr: float = DEFAULT_LR,
    batch: int = DEFAULT_BATCH,
) -> ProbeTrainResult:
    """Train on a stratified 90% of the data; metrics come from the held 10%."""
    if epochs < 1:
        raise ValueError("epochs must be >= 1")
    y = np.asarray(labels, dtype=np.int64)
    if y.shape[0] != len(embeddings):
        raise ValueError(f"{y.shape[0]} labels for {len(embeddings)} rows; the probe needs one label a row")
    if (y < 0).any():  # the classifier's outputs are classes 0..C-1; -1 would index the last
        raise ValueError(f"the labels hold the class {y.min()}, which is negative; the probe numbers its classes from 0")
    classes = np.unique(y)
    if classes.shape[0] < 2:
        raise ValueError(f"the labels hold the classes {classes.tolist()} only; the probe needs at least 2 classes")
    x = _as_matrix(embeddings)
    n_classes = int(classes.max()) + 1
    rng = np.random.default_rng(seed)
    train_idx, val_idx = stratified_split(y, VAL_FRACTION, rng)
    clf = ProbeClassifier(x.shape[1], n_classes, hidden=hidden, seed=seed)
    opt = Adam(clf.params, lr=lr)
    xt, yt = x[train_idx], y[train_idx]
    n = xt.shape[0]
    total_steps = max(1, epochs * int(np.ceil(n / batch)))
    step = 0
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            took = order[start : start + batch]
            logits, cache = clf._forward(xt[took])
            _, dlogits = cross_entropy(logits, yt[took], np.ones(took.shape[0], dtype=bool))
            grads = clf._backward(dlogits, cache)
            # polynomial (linear) decay to zero over the run
            lr_t = lr * (1.0 - step / total_steps)
            opt.step(clf.params, grads, lr=lr_t)
            step += 1
    val_metrics = probe_eval(clf, x[val_idx], y[val_idx])
    return ProbeTrainResult(clf, val_metrics, train_idx, val_idx)


def probe_eval(clf: ProbeClassifier, embeddings, labels) -> tuple[float, float, float]:
    """Macro-averaged (recall, precision, F1) over the classes present in labels."""
    x = _as_matrix(embeddings)
    y = np.asarray(labels, dtype=np.int64)
    pred = clf.predict(x)
    recalls, precisions, f1s = [], [], []
    for cls in np.unique(y):
        tp = float(np.sum((pred == cls) & (y == cls)))
        fn = float(np.sum((pred != cls) & (y == cls)))
        fp = float(np.sum((pred == cls) & (y != cls)))
        rec = tp / (tp + fn) if tp + fn > 0 else 0.0
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        recalls.append(rec)
        precisions.append(prec)
        f1s.append(f1)
    return float(np.mean(recalls)), float(np.mean(precisions)), float(np.mean(f1s))
