"""Small numpy building blocks with hand-written gradients, shared by the
attention LM and the probe classifier. Everything runs in float64."""

from __future__ import annotations

import numpy as np

LN_EPS = 1e-5


def layernorm_forward(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    """Normalize over the last axis; returns output and a backward cache."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)  # x.var's own steps, reusing x - mu
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv_std
    cache = (xhat, inv_std, g)
    return layernorm_output(cache, b), cache


def layernorm_output(cache, b: np.ndarray) -> np.ndarray:
    """The output xhat * g + b that layernorm_forward returned with `cache`,
    remade bit for bit, for a caller that keeps the cache and not the output."""
    xhat, _, g = cache
    return xhat * g + b


def layernorm_backward(dy: np.ndarray, cache):
    """dx, dg, db. The pass overwrites the cache's xhat, so it runs once per
    forward; dx is dy * g, turned into the gradient in place, and one more
    array holds the two products that are summed. The values are those of
    inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), operation for
    operation."""
    xhat, inv_std, g = cache
    prod = dy * xhat
    dg = prod.reshape(-1, xhat.shape[-1]).sum(axis=0)
    db = dy.reshape(-1, xhat.shape[-1]).sum(axis=0)
    dx = dy * g
    mean_dxhat = dx.mean(axis=-1, keepdims=True)
    np.multiply(dx, xhat, out=prod)
    xhat *= prod.mean(axis=-1, keepdims=True)
    dx -= mean_dxhat
    dx -= xhat
    dx *= inv_std
    return dx, dg, db


def linear_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    y = x @ w
    y += b
    return y, x


def linear_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray):
    flat_x = x.reshape(-1, x.shape[-1])
    flat_dy = dy.reshape(-1, dy.shape[-1])
    dw = flat_x.T @ flat_dy
    db = flat_dy.sum(axis=0)
    dx = dy @ w.T
    return dx, dw, db


def log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(logits: np.ndarray, targets: np.ndarray, valid: np.ndarray):
    """Mean NLL over valid positions; returns (loss, dlogits).

    logits: (..., V); targets: integer array matching logits[...-1]; valid:
    boolean mask of the same shape as targets.
    """
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("cross_entropy needs at least one valid position")
    logp = log_softmax(logits)
    flat_logp = logp.reshape(-1, logp.shape[-1])
    flat_t = targets.reshape(-1)
    flat_valid = valid.reshape(-1)
    safe_t = np.where(flat_valid, flat_t, 0)
    picked = flat_logp[np.arange(flat_t.shape[0]), safe_t]
    loss = -float((picked * flat_valid).sum()) / n_valid
    probs = np.exp(flat_logp)
    dlogits = probs
    dlogits[np.arange(flat_t.shape[0]), safe_t] -= 1.0
    dlogits *= (flat_valid / n_valid)[:, None]
    return loss, dlogits.reshape(logits.shape)


class Adam:
    """Adaptive-moment optimizer over a dict of parameter arrays."""

    def __init__(self, params: dict, lr: float, betas=(0.9, 0.98), eps: float = 1e-8):
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict, grads: dict, lr: float | None = None) -> None:
        self.t += 1
        lr = self.lr if lr is None else lr
        for key, g in grads.items():
            self.m[key] = self.b1 * self.m[key] + (1 - self.b1) * g
            self.v[key] = self.b2 * self.v[key] + (1 - self.b2) * g * g
            mhat = self.m[key] / (1 - self.b1**self.t)
            vhat = self.v[key] / (1 - self.b2**self.t)
            params[key] -= lr * mhat / (np.sqrt(vhat) + self.eps)
