"""Q-value network with exact analytic gradients, in plain numpy.

Architecture: a stack of LSTM layers consumes the window-feature sequence
step by step; the final hidden state feeds a tanh dense layer (``fc1``) and
a linear head (``fc2``) that emits one Q-value per action (index 0 = Right,
index 1 = Left).  Everything is double precision.  Each layer holds the
input, forget, cell and output gates' weights column-stacked in the order
(input, forget, output, cell), which keeps the three sigmoid gates in one
contiguous block.

The batched forward keeps per-step activations in ``(steps, batch, ...)``
layout so each time slice is contiguous; ``backward`` replays the stack in
reverse (through every step and layer) and returns gradients shaped exactly
like :func:`param_list`.  Training code is the single writer of a network's
arrays; frozen networks are safe to share across threads.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import PhaseseekError

FC1_UNITS = 50
NUM_ACTIONS = 2

CKPT_MAGIC = b"QNET"
CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sIIIIII")  # magic, version, D, H, M, fc1, actions


@dataclass
class LstmLayer:
    """One layer's parameters: input, recurrent, and bias blocks."""

    w_in: np.ndarray   # (din, 4H), gate columns in i, f, o, g order
    w_rec: np.ndarray  # (H, 4H)
    bias: np.ndarray   # (4H,)


@dataclass
class QNetwork:
    input_dim: int
    hidden_dim: int
    num_layers: int
    layers: list[LstmLayer] = field(default_factory=list)
    fc1_w: np.ndarray | None = None
    fc1_b: np.ndarray | None = None
    fc2_w: np.ndarray | None = None
    fc2_b: np.ndarray | None = None


def init_qnetwork(
    input_dim: int, hidden_dim: int = 64, num_layers: int = 2, seed: int = 0
) -> QNetwork:
    """Build a network with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights."""
    if min(input_dim, hidden_dim, num_layers) < 1:
        raise ValueError("input_dim, hidden_dim and num_layers must be >= 1")
    rng = np.random.default_rng(seed)
    h = hidden_dim

    def uniform(fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    net = QNetwork(input_dim, hidden_dim, num_layers)
    din = input_dim
    for _ in range(num_layers):
        net.layers.append(
            LstmLayer(
                w_in=uniform(din, (din, 4 * h)),
                w_rec=uniform(h, (h, 4 * h)),
                bias=uniform(h, (4 * h,)),
            )
        )
        din = h
    net.fc1_w = uniform(h, (h, FC1_UNITS))
    net.fc1_b = uniform(h, (FC1_UNITS,))
    net.fc2_w = uniform(FC1_UNITS, (FC1_UNITS, NUM_ACTIONS))
    net.fc2_b = uniform(FC1_UNITS, (NUM_ACTIONS,))
    return net


def zero_qnetwork(input_dim: int, hidden_dim: int = 64, num_layers: int = 2) -> QNetwork:
    """All-zero network (useful as a fixed point in tests)."""
    net = init_qnetwork(input_dim, hidden_dim, num_layers, seed=0)
    for p in param_list(net):
        p[...] = 0.0
    return net


def param_list(net: QNetwork) -> list[np.ndarray]:
    """All parameter arrays in declaration order (views, not copies)."""
    params: list[np.ndarray] = []
    for layer in net.layers:
        params.extend((layer.w_in, layer.w_rec, layer.bias))
    params.extend((net.fc1_w, net.fc1_b, net.fc2_w, net.fc2_b))
    return params


def clone_params(net: QNetwork) -> QNetwork:
    """Deep copy; the clone never aliases the original's arrays."""
    copy = QNetwork(net.input_dim, net.hidden_dim, net.num_layers)
    copy.layers = [
        LstmLayer(l.w_in.copy(), l.w_rec.copy(), l.bias.copy()) for l in net.layers
    ]
    copy.fc1_w = net.fc1_w.copy()
    copy.fc1_b = net.fc1_b.copy()
    copy.fc2_w = net.fc2_w.copy()
    copy.fc2_b = net.fc2_b.copy()
    return copy


def copy_params_into(src: QNetwork, dst: QNetwork) -> None:
    """Overwrite dst's parameters with src's values (shapes must match)."""
    for p_src, p_dst in zip(param_list(src), param_list(dst)):
        if p_src.shape != p_dst.shape:
            raise ValueError("network shapes do not match")
        p_dst[...] = p_src


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

@dataclass
class ForwardCache:
    net: QNetwork
    x_steps: int
    batch: int
    layer_inputs: list[np.ndarray]   # (T, B, din) per layer
    gates: list[np.ndarray]          # (T, B, 4H) post-activation
    cells: list[np.ndarray]          # (T, B, H)
    tanh_cells: list[np.ndarray]     # (T, B, H)
    hiddens: list[np.ndarray]        # (T, B, H)
    h_last: np.ndarray               # (B, H)
    a1: np.ndarray                   # (B, FC1_UNITS)


def _take(scratch: dict | None, key, shape) -> np.ndarray:
    # Reusable uninitialized buffer.  A scratch dict amortizes large-array
    # allocation across repeated calls of identical geometry (the training
    # hot path); without one, buffers are freshly allocated.
    if scratch is None:
        return np.empty(shape)
    arr = scratch.get(key)
    if arr is None or arr.shape != shape:
        arr = np.empty(shape)
        scratch[key] = arr
    return arr


def _gate_activations(z: np.ndarray, h: int) -> None:
    # In place: sigmoid on the contiguous i, f, o block, tanh on the g block.
    s = z[:, : 3 * h]
    np.negative(s, out=s)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)
    g = z[:, 3 * h:]
    np.tanh(g, out=g)


def forward_batch(
    net: QNetwork,
    x: np.ndarray,
    need_cache: bool = True,
    scratch: dict | None = None,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Evaluate a batch of sequences; ``x`` is (B, T, D) or (T, D).

    Returns Q-values of shape (B, NUM_ACTIONS) and, when requested, the
    activation record consumed by :func:`backward_batch`.  Passing a
    ``scratch`` dict reuses internal buffers across calls: the returned
    cache is then only valid until the next cached call with the same
    scratch, and the caller must be the sole user of that dict.
    """
    x = np.asarray(x, dtype=np.float64)
    squeezed = x.ndim == 2
    if squeezed:
        x = x[None]
    b, t, d = x.shape
    if d != net.input_dim:
        raise PhaseseekError(
            f"input dim {d} does not match network input dim {net.input_dim}"
        )
    h = net.hidden_dim
    tag = "fc" if need_cache else "fn"  # cached/uncached buffers never alias

    seq = np.ascontiguousarray(x.transpose(1, 0, 2))  # (T, B, D)
    layer_inputs, all_gates, all_cells, all_tcells, all_hiddens = [], [], [], [], []
    rec = _take(scratch, (tag, "rec"), (b, 4 * h))
    for li, layer in enumerate(net.layers):
        gates = _take(scratch, (tag, "gates", li), (t, b, 4 * h))
        np.dot(seq.reshape(t * b, -1), layer.w_in, out=gates.reshape(t * b, 4 * h))
        gates += layer.bias
        cells = _take(scratch, (tag, "cells", li), (t, b, h))
        tcells = _take(scratch, (tag, "tcells", li), (t, b, h))
        hiddens = _take(scratch, (tag, "hiddens", li), (t, b, h))
        h_prev = np.zeros((b, h))
        c_prev = np.zeros((b, h))
        for step in range(t):
            z = gates[step]
            np.dot(h_prev, layer.w_rec, out=rec)
            z += rec
            _gate_activations(z, h)
            c = cells[step]
            np.multiply(z[:, h: 2 * h], c_prev, out=c)          # forget * c_prev
            c += z[:, :h] * z[:, 3 * h:]                        # + input * cell
            tc = tcells[step]
            np.tanh(c, out=tc)
            np.multiply(z[:, 2 * h: 3 * h], tc, out=hiddens[step])  # output * tanh(c)
            h_prev = hiddens[step]
            c_prev = c
        if need_cache:
            layer_inputs.append(seq)
            all_gates.append(gates)
            all_cells.append(cells)
            all_tcells.append(tcells)
            all_hiddens.append(hiddens)
        seq = hiddens

    h_last = seq[-1]
    a1 = np.tanh(h_last @ net.fc1_w + net.fc1_b)
    q = a1 @ net.fc2_w + net.fc2_b

    cache = None
    if need_cache:
        cache = ForwardCache(
            net, t, b, layer_inputs, all_gates, all_cells, all_tcells, all_hiddens,
            h_last, a1,
        )
    return (q[0] if squeezed else q), cache


def forward(net: QNetwork, state: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Single-state forward pass on a ``(2L, D)`` state; returns (q-values, activation cache)."""
    return forward_batch(net, state, need_cache=True)


def backward_batch(
    net: QNetwork, cache: ForwardCache, dq: np.ndarray, scratch: dict | None = None
) -> list[np.ndarray]:
    """Exact gradients of sum(dq * q) w.r.t. every parameter.

    ``cache`` must come from a ``forward_batch`` call on the same network;
    gradients are returned in :func:`param_list` order.  With a ``scratch``
    dict the returned arrays are reused by the next call, so they must be
    consumed before then.
    """
    if cache is None or cache.net is not net:
        raise PhaseseekError("cache does not belong to this network")
    dq = np.asarray(dq, dtype=np.float64)
    if dq.ndim == 1:
        dq = dq[None]
    b, t, h = cache.batch, cache.x_steps, net.hidden_dim
    if dq.shape != (b, NUM_ACTIONS):
        raise PhaseseekError(f"dq shape {dq.shape} does not match batch {b}")

    # Dense head.
    a1 = cache.a1
    d_fc2_w = a1.T @ dq
    d_fc2_b = dq.sum(axis=0)
    da1 = dq @ net.fc2_w.T
    dz1 = da1 * (1.0 - a1 * a1)
    d_fc1_w = cache.h_last.T @ dz1
    d_fc1_b = dz1.sum(axis=0)
    dh_last = dz1 @ net.fc1_w.T

    # Upstream gradient w.r.t. the top layer's hidden sequence.
    d_seq = _take(scratch, ("bw", "dseq"), (t, b, h))
    d_seq.fill(0.0)
    d_seq[-1] = dh_last

    d_z = _take(scratch, ("bw", "dz"), (t, b, 4 * h))  # shared by all layers
    dh = _take(scratch, ("bw", "dh"), (b, h))
    dh_rec = _take(scratch, ("bw", "dhrec"), (b, h))
    dc = _take(scratch, ("bw", "dc"), (b, h))
    t1 = _take(scratch, ("bw", "t1"), (b, h))
    t2 = _take(scratch, ("bw", "t2"), (b, h))

    grads_per_layer: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for li in range(net.num_layers - 1, -1, -1):
        layer = net.layers[li]
        gates = cache.gates[li]
        cells = cache.cells[li]
        tcells = cache.tanh_cells[li]
        hiddens = cache.hiddens[li]
        x_in = cache.layer_inputs[li]
        w_rec_t = np.ascontiguousarray(layer.w_rec.T)

        dh_rec.fill(0.0)
        dc.fill(0.0)
        for step in range(t - 1, -1, -1):
            z = gates[step]
            gi, gf, go, gg = z[:, :h], z[:, h: 2 * h], z[:, 2 * h: 3 * h], z[:, 3 * h:]
            tc = tcells[step]
            np.add(d_seq[step], dh_rec, out=dh)
            # dc += dh * o * (1 - tanh(c)^2)
            np.multiply(tc, tc, out=t1)
            np.subtract(1.0, t1, out=t1)
            t1 *= go
            t1 *= dh
            dc += t1
            dzs = d_z[step]
            # input gate: dz_i = dc * g * i(1-i)
            np.subtract(1.0, gi, out=t2)
            t2 *= gi
            t2 *= gg
            t2 *= dc
            dzs[:, :h] = t2
            # forget gate: dz_f = dc * c_prev * f(1-f)
            np.subtract(1.0, gf, out=t2)
            t2 *= gf
            if step > 0:
                t2 *= cells[step - 1]
            else:
                t2[...] = 0.0
            t2 *= dc
            dzs[:, h: 2 * h] = t2
            # output gate: dz_o = dh * tanh(c) * o(1-o)
            np.subtract(1.0, go, out=t2)
            t2 *= go
            t2 *= tc
            t2 *= dh
            dzs[:, 2 * h: 3 * h] = t2
            # cell candidate: dz_g = dc * i * (1-g^2)
            np.multiply(gg, gg, out=t2)
            np.subtract(1.0, t2, out=t2)
            t2 *= gi
            t2 *= dc
            dzs[:, 3 * h:] = t2
            np.dot(dzs, w_rec_t, out=dh_rec)
            dc *= gf

        dz_flat = d_z.reshape(t * b, 4 * h)
        # Recurrent weights see the hidden state one step earlier; step 0
        # contributes nothing (zero initial hidden state).
        d_w_rec = _take(scratch, ("bw", "dwrec", li), (h, 4 * h))
        np.dot(hiddens[: t - 1].reshape((t - 1) * b, h).T, dz_flat[b:], out=d_w_rec)
        din = x_in.shape[2]
        d_w_in = _take(scratch, ("bw", "dwin", li), (din, 4 * h))
        np.dot(x_in.reshape(t * b, din).T, dz_flat, out=d_w_in)
        d_bias = dz_flat.sum(axis=0)
        grads_per_layer.append((d_w_in, d_w_rec, d_bias))
        if li > 0:
            # Lower layer's hidden dim equals h, so d_seq can be rebuilt in place.
            np.dot(dz_flat, layer.w_in.T, out=d_seq.reshape(t * b, h))

    grads: list[np.ndarray] = []
    for d_w_in, d_w_rec, d_bias in reversed(grads_per_layer):
        grads.extend((d_w_in, d_w_rec, d_bias))
    grads.extend((d_fc1_w, d_fc1_b, d_fc2_w, d_fc2_b))
    return grads


def backward(net: QNetwork, cache: ForwardCache, dq: np.ndarray) -> list[np.ndarray]:
    """Single-state gradient, matching :func:`forward`."""
    return backward_batch(net, cache, dq)


# ---------------------------------------------------------------------------
# Loss and optimizer
# ---------------------------------------------------------------------------

def huber_loss(pred, target, delta: float = 1.0):
    """Piecewise quadratic/linear loss and its derivative w.r.t. pred.

    Works elementwise on arrays as well as on scalars.
    """
    diff = np.asarray(pred, dtype=np.float64) - np.asarray(target, dtype=np.float64)
    absd = np.abs(diff)
    quad = absd <= delta
    loss = np.where(quad, 0.5 * diff * diff, delta * (absd - 0.5 * delta))
    grad = np.clip(diff, -delta, delta)
    if loss.ndim == 0:
        return float(loss), float(grad)
    return loss, grad


@dataclass
class AdamState:
    """First/second moment estimates and step counter for one parameter set."""

    ms: list[np.ndarray]
    vs: list[np.ndarray]
    t: int = 0
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def adam_init(params: list[np.ndarray], lr: float = 3e-4) -> AdamState:
    return AdamState(
        ms=[np.zeros_like(p) for p in params],
        vs=[np.zeros_like(p) for p in params],
        lr=lr,
    )


def adam_step(params: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """One bias-corrected Adam update, applied to ``params`` in place."""
    if len(params) != len(state.ms) or len(params) != len(grads):
        raise ValueError("params, grads and Adam state must have matching lengths")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for p, g, m, v in zip(params, grads, state.ms, state.vs):
        if p.shape != g.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= state.lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(net: QNetwork, path) -> None:
    """Write dims header plus all parameters as little-endian float64."""
    header = _CKPT_HEADER.pack(
        CKPT_MAGIC, CKPT_VERSION, net.input_dim, net.hidden_dim, net.num_layers,
        FC1_UNITS, NUM_ACTIONS,
    )
    blobs = [p.astype("<f8").tobytes(order="C") for p in param_list(net)]
    Path(path).write_bytes(header + b"".join(blobs))


def load_checkpoint(path) -> QNetwork:
    raw = Path(path).read_bytes()
    if len(raw) < _CKPT_HEADER.size or raw[:4] != CKPT_MAGIC:
        raise PhaseseekError(f"{path}: not a network checkpoint")
    _, version, d, h, m, fc1, actions = _CKPT_HEADER.unpack_from(raw)
    if version != CKPT_VERSION:
        raise PhaseseekError(f"{path}: unsupported checkpoint version {version}")
    if fc1 != FC1_UNITS or actions != NUM_ACTIONS:
        raise PhaseseekError(f"{path}: head dims {fc1}/{actions} not supported")
    net = QNetwork(d, h, m)
    net.layers = [
        LstmLayer(
            w_in=np.empty((d if i == 0 else h, 4 * h)),
            w_rec=np.empty((h, 4 * h)),
            bias=np.empty(4 * h),
        )
        for i in range(m)
    ]
    net.fc1_w = np.empty((h, FC1_UNITS))
    net.fc1_b = np.empty(FC1_UNITS)
    net.fc2_w = np.empty((FC1_UNITS, NUM_ACTIONS))
    net.fc2_b = np.empty(NUM_ACTIONS)

    offset = _CKPT_HEADER.size
    for p in param_list(net):
        nbytes = p.size * 8
        if offset + nbytes > len(raw):
            raise PhaseseekError(f"{path}: checkpoint payload truncated")
        p[...] = np.frombuffer(raw, dtype="<f8", count=p.size, offset=offset).reshape(p.shape)
        offset += nbytes
    if offset != len(raw):
        raise PhaseseekError(f"{path}: trailing bytes in checkpoint")
    return net
