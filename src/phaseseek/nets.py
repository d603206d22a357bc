"""Q-value network with exact analytic gradients, in plain numpy.

Architecture: a stack of LSTM layers consumes the window-feature sequence
step by step; the final hidden state feeds a tanh dense layer (``fc1``) and
a linear head (``fc2``) that emits one Q-value per action (index 0 = Right,
index 1 = Left).  Everything is double precision.  A checkpoint holds each
layer's input, forget, cell and output gates' weights column-stacked in the
order (input, forget, output, cell), which keeps the three sigmoid gates in
one contiguous block.

A :class:`QNetwork` keeps its weights in one layout only, the gate-major
blocks the kernel reads; checkpoints keep the (rows, 4H) layout above, and
:func:`save_checkpoint` and :func:`load_checkpoint` convert at the file.
One kernel evaluates and differentiates networks: :func:`forward_stack`
evaluates every network of a :class:`QNetwork` (one, or several joined by
:func:`stack_networks`) in one pass, and, when asked to cache, keeps every
step's activations for :func:`backward_stack`, which returns gradients
shaped exactly like :func:`param_list`.  :func:`forward` and
:func:`backward` are its one-network wrappers, and :func:`q_values`
evaluates states under chosen networks of a stack for greedy search.
Training code is the single writer of a network's arrays; frozen networks
are safe to share across threads.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PhaseseekError
from .features import MAX_VALUES, write_atomic

FC1_UNITS = 50
NUM_ACTIONS = 2

CKPT_MAGIC = b"QNET"
CKPT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sIIIIII")  # magic, version, D, H, M, fc1, actions


@dataclass
class LstmLayer:
    """One layer's parameters, gate-major: input, recurrent and bias blocks."""

    w_in: np.ndarray   # (N, 4, din, H), gates in i, f, o, g order
    w_rec: np.ndarray  # (N, 4, H, H)
    bias: np.ndarray   # (N, 4, 1, H)


@dataclass(frozen=True)
class QNetwork:
    """N >= 1 networks of one geometry, in the layout the kernel reads.

    Each entry of ``layers`` holds one layer of every network in gate-major
    blocks (see :class:`LstmLayer`).  The sigmoid gates' (i, f, o) blocks
    are stored negated, so their pre-activations come out as -z and feed
    ``exp`` directly; negation is exact, so this changes no bit.  The dense
    head is stacked as ``fc1_w`` (N, H, FC1_UNITS), ``fc1_b`` (N, 1,
    FC1_UNITS), ``fc2_w`` (N, FC1_UNITS, NUM_ACTIONS) and ``fc2_b`` (N, 1,
    NUM_ACTIONS).  A network made by :func:`init_qnetwork` or
    :func:`load_checkpoint` holds one; :func:`stack_networks` concatenates
    several.
    """

    input_dim: int
    hidden_dim: int
    layers: list[LstmLayer]
    fc1_w: np.ndarray
    fc1_b: np.ndarray
    fc2_w: np.ndarray
    fc2_b: np.ndarray

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def __len__(self) -> int:
        return len(self.fc1_w)

    def __getitem__(self, rows: slice) -> QNetwork:
        """The networks in ``rows``, as views of this network's arrays."""
        return _assemble(self.input_dim, self.hidden_dim, [p[rows] for p in param_list(self)])


def _assemble(input_dim: int, hidden_dim: int, params: list[np.ndarray]) -> QNetwork:
    # A QNetwork around arrays given in param_list order.
    lstm = params[:-4]
    layers = [LstmLayer(*lstm[i: i + 3]) for i in range(0, len(lstm), 3)]
    return QNetwork(input_dim, hidden_dim, layers, *params[-4:])


def _file_shapes(input_dim: int, hidden_dim: int, num_layers: int) -> list[tuple[int, ...]]:
    # Each parameter's shape in a checkpoint file, in param_list order: the
    # LSTM blocks are (rows, 4H) with gate columns in i, f, o, g order.
    h = hidden_dim
    shapes = []
    for din in [input_dim] + [h] * (num_layers - 1):
        shapes += [(din, 4 * h), (h, 4 * h), (4 * h,)]
    return shapes + [(h, FC1_UNITS), (FC1_UNITS,), (FC1_UNITS, NUM_ACTIONS), (NUM_ACTIONS,)]


def _gate_major(w: np.ndarray) -> np.ndarray:
    # (N, rows, 4H) gate-minor weights in the kernel layout: (N, 4, rows, H),
    # sigmoid blocks negated.  Always a fresh array.
    n, rows, h4 = w.shape
    out = w.reshape(n, rows, 4, h4 // 4).transpose(0, 2, 1, 3).copy()
    np.negative(out[:, :3], out=out[:, :3])
    return out


def _gate_minor(w: np.ndarray) -> np.ndarray:
    # Kernel-layout (N, 4, rows, H) weights back in file layout: (N, rows, 4H),
    # sigmoid blocks un-negated.
    n, _, rows, h = w.shape
    out = np.empty((n, rows, 4, h))
    np.copyto(out, w.transpose(0, 2, 1, 3))
    np.negative(out[:, :, :3], out=out[:, :, :3])
    return out.reshape(n, rows, 4 * h)


def _from_file_layout(input_dim: int, hidden_dim: int, params: list[np.ndarray]) -> QNetwork:
    # One network from its parameters in file layout (see _file_shapes).
    lstm, head = params[:-4], params[-4:]
    return _assemble(input_dim, hidden_dim,
                     [_gate_major(p.reshape(1, -1, 4 * hidden_dim)) for p in lstm]
                     + [p.reshape(1, -1, p.shape[-1]).copy() for p in head])


def _param_count(input_dim: int, hidden_dim: int, num_layers: int) -> int:
    # Values in one network of these dims; Python ints, so no overflow.
    h = hidden_dim
    return ((input_dim + h + 1) * 4 * h + (num_layers - 1) * (2 * h + 1) * 4 * h
            + (h + 1) * FC1_UNITS + (FC1_UNITS + 1) * NUM_ACTIONS)


def init_qnetwork(
    input_dim: int, hidden_dim: int = 64, num_layers: int = 2, seed: int = 0
) -> QNetwork:
    """Build a network with uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) weights.

    Refuses dims whose weights would exceed ``MAX_VALUES`` values."""
    if min(input_dim, hidden_dim, num_layers) < 1:
        raise ValueError("input_dim, hidden_dim and num_layers must be >= 1")
    values = _param_count(input_dim, hidden_dim, num_layers)
    if values > MAX_VALUES:
        raise ValueError(f"input_dim {input_dim}, hidden_dim {hidden_dim} and num_layers "
                         f"{num_layers} make {values} weights, above the limit of {MAX_VALUES}")
    rng = np.random.default_rng(seed)
    params = []
    for shape in _file_shapes(input_dim, hidden_dim, num_layers):
        if len(shape) == 2:  # a bias shares the fan-in of the weights before it
            bound = 1.0 / np.sqrt(shape[0])
        params.append(rng.uniform(-bound, bound, size=shape))
    return _from_file_layout(input_dim, hidden_dim, params)


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
    return _assemble(net.input_dim, net.hidden_dim, [p.copy() for p in param_list(net)])


def copy_params_into(src: QNetwork, dst: QNetwork) -> None:
    """Overwrite dst's parameters with src's values (shapes must match)."""
    for p_src, p_dst in zip(param_list(src), param_list(dst)):
        if p_src.shape != p_dst.shape:
            raise ValueError("network shapes do not match")
        p_dst[...] = p_src


def stack_networks(nets: list[QNetwork]) -> QNetwork:
    """Concatenate networks of one (input dim, hidden dim, layers) geometry;
    later changes to the networks do not reach the result."""
    if not nets:
        raise ValueError("need at least one network")
    first = nets[0]
    geometry = (first.input_dim, first.hidden_dim, first.num_layers)
    if any((n.input_dim, n.hidden_dim, n.num_layers) != geometry for n in nets):
        raise ValueError("stacked networks must share input dim, hidden dim and layers")
    return _assemble(first.input_dim, first.hidden_dim,
                     [np.concatenate(ps) for ps in zip(*map(param_list, nets))])


# ---------------------------------------------------------------------------
# The LSTM kernel: forward and backward
# ---------------------------------------------------------------------------

def _arrays(shapes: list[tuple[int, ...]]) -> list[np.ndarray]:
    # Uninitialized arrays carved from one block.  The allocator reuses a
    # freed block of this size, so repeated passes of one geometry (one per
    # training update) do not touch fresh pages; separate arrays did, and
    # cost about 3 ms per update.
    sizes = [math.prod(s) for s in shapes]
    block = np.empty(sum(sizes))
    out, offset = [], 0
    for shape, size in zip(shapes, sizes):
        out.append(block[offset: offset + size].reshape(shape))
        offset += size
    return out


@dataclass
class StackCache:
    """Every step's activations of one cached :func:`forward_stack` pass.

    The arrays are views of one block allocated for the pass; ``grad_z`` and
    ``grad_h`` are :func:`backward_stack`'s room in it.
    """

    stack: QNetwork
    x: np.ndarray           # (N, T, B, D) inputs, step-major
    gates: np.ndarray       # (layers, N, T, 4, B, H) i, f, o, g after activation
    cells: np.ndarray       # (layers, N, T, B, H)
    tanh_cells: np.ndarray  # (layers, N, T, B, H)
    hiddens: np.ndarray     # (layers, N, T, B, H)
    a1: np.ndarray          # (N, B, FC1_UNITS)
    grad_z: np.ndarray      # (N, T, B, 4H) gate-minor, like the checkpoint columns
    grad_h: np.ndarray      # (N, T, B, H)


def forward_stack(stack: QNetwork, x: np.ndarray, cache: bool = False):
    """Q-values (N, B, NUM_ACTIONS) of every stacked network on its own batch.

    ``x`` is (N, B, T, D): network n evaluates ``x[n]``.  The pass runs
    step-major: at each step every layer of every network advances with one
    ``np.matmul`` per weight block into an (N, 4, B, H) gate block, so each
    elementwise op works on contiguous per-network blocks.  Each network's
    Q-values are bit-identical to the row-major reference kernel in
    ``tests/reference_kernel.py`` when B is a multiple of 4 (the BLAS
    micro-kernel height) and at most 256.

    With ``cache=True`` it keeps every step's activations and returns
    ``(q, StackCache)`` for :func:`backward_stack`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or len(x) != len(stack):
        raise PhaseseekError(f"need a ({len(stack)}, B, T, D) batch, got shape {x.shape}")
    n, b, t, d = x.shape
    if d != stack.input_dim:
        raise PhaseseekError(
            f"input dim {d} does not match network input dim {stack.input_dim}"
        )
    h, depth = stack.hidden_dim, len(stack.layers)
    # An uncached pass keeps only the current step, and its layers share the
    # gate and tanh(cell) blocks.
    kept, shared = (t, depth) if cache else (1, 1)
    shapes = [(shared, n, kept, 4, b, h), (depth, n, kept, b, h), (shared, n, kept, b, h),
              (depth, n, kept, b, h)]
    if cache:
        shapes += [(n, t, b, d), (n, t, b, 4 * h), (n, t, b, h)]
    gates, cells, tcells, hiddens, *cache_room = _arrays(shapes)
    seq = x.transpose(0, 2, 1, 3)  # (N, T, B, D) view
    if cache:  # kept contiguous for the backward's weight gradients
        cache_room[0][...] = seq
        seq = cache_room[0]
    rec = np.empty((n, 4, b, h))
    prod = np.empty((n, b, h))
    # Views of each layer's blocks at each kept step, built once, so an
    # uncached pass reuses the same views at every step.
    blocks = [[(cells[li, :, k], hiddens[li, :, k, None], hiddens[li, :, k], z, z[:, :3],
                z[:, 0], z[:, 1], z[:, 2], z[:, 3], tcells[li % shared, :, k])
               for k, z in enumerate(gates[li % shared].transpose(1, 0, 2, 3, 4))]
              for li in range(depth)]
    c_zero = np.zeros((n, b, h))
    with np.errstate(over="ignore"):
        for step in range(t):
            k, k_prev = (step, step - 1) if cache else (0, 0)
            inp = seq[:, step, None]
            for layer, layer_blocks in zip(stack.layers, blocks):
                c, hid, hid_out, z, sig, i_gate, f_gate, o_gate, g_gate, tc = layer_blocks[k]
                c_prev, hid_prev = layer_blocks[k_prev][:2]
                np.matmul(inp, layer.w_in, out=z)
                z += layer.bias
                if step:  # the state starts at zero: no recurrent term at step 0
                    np.matmul(hid_prev, layer.w_rec, out=rec)
                    z += rec
                np.exp(sig, out=sig)  # sigmoid of the stored -z
                sig += 1.0
                np.divide(1.0, sig, out=sig)
                np.tanh(g_gate, out=g_gate)
                np.multiply(f_gate, c_prev if step else c_zero, out=c)
                np.multiply(i_gate, g_gate, out=prod)
                c += prod
                np.tanh(c, out=tc)
                np.multiply(o_gate, tc, out=hid_out)
                inp = hid
    a1 = np.tanh(hiddens[-1][:, -1] @ stack.fc1_w + stack.fc1_b)
    q = a1 @ stack.fc2_w + stack.fc2_b
    if not cache:
        return q
    return q, StackCache(stack, seq, gates, cells, tcells, hiddens, a1, *cache_room[1:])


# Batch geometry of q_values.  OpenBLAS's x86-64 dgemm rounds a product row
# differently when the row falls in a remainder block of fewer than four
# rows (its micro-kernel height), and the 64x50 head product changes path
# again from about 1000 rows.  Padding each network's states with zero
# states to a multiple of four rows, at most 256, keeps each state's
# Q-values bit-identical whatever other states (or networks) share its
# pass; tests/test_inference.py checks this on the host BLAS.
_ROW_MULTIPLE = 4
_MAX_ROWS = 256


def q_values(stack: QNetwork, which, states) -> np.ndarray:
    """Q-values (M, NUM_ACTIONS) of each ``states[m]`` under network ``which[m]``.

    ``states`` is (M, 2L, D) and ``which`` holds M rows of ``stack``.  Each
    state takes the next slot of its network's batch, and one uncached
    :func:`forward_stack` pass evaluates every batch, zero-padded to one
    width, on the stack rows from the lowest to the highest ``which``; each
    further 256 states of the busiest network add one pass.  A state's
    Q-values do not depend on the other states or networks of the call.
    """
    which = np.asarray(which, dtype=np.int64)
    states = np.asarray(states, dtype=np.float64)
    if not len(which):
        return np.empty((0, NUM_ACTIONS))
    first = int(which.min())
    net = which - first
    counts = np.bincount(net)
    slot = np.empty_like(net)
    slot[np.argsort(net, kind="stable")] = (np.arange(len(net))
                                            - np.repeat(np.cumsum(counts) - counts, counts))
    busiest = int(counts.max())
    width = min(busiest + -busiest % _ROW_MULTIPLE, _MAX_ROWS)
    passes, row = np.divmod(slot, width)
    x = np.zeros((-(-busiest // width), len(counts), width) + states.shape[1:])
    x[passes, net, row] = states
    stack = stack[first: first + len(counts)]
    return np.stack([forward_stack(stack, batch) for batch in x])[passes, net, row]


def backward_stack(stack: QNetwork, cache: StackCache, dq: np.ndarray) -> list[np.ndarray]:
    """Exact gradients of sum(dq * q) w.r.t. every stacked network's parameters.

    ``cache`` must come from a cached ``forward_stack`` pass on ``stack``;
    ``dq`` is (N, B, NUM_ACTIONS).  Returns one array per parameter,
    shaped like :func:`param_list`'s.  Each step's gate gradients are
    written gate-minor, so the products over 4H sum in the checkpoint
    file's column order; the weight gradients are then moved into the
    kernel layout, which is exact.
    """
    if cache is None or cache.stack is not stack:
        raise PhaseseekError("cache does not belong to this network")
    n, t, b, _ = cache.x.shape
    h = stack.hidden_dim
    dq = np.asarray(dq, dtype=np.float64)
    if dq.shape != (n, b, NUM_ACTIONS):
        raise PhaseseekError(f"dq shape {dq.shape} does not match the ({n}, {b}) batch")

    # Dense head.
    a1, h_last = cache.a1, cache.hiddens[-1][:, -1]
    d_fc2_w = a1.transpose(0, 2, 1) @ dq
    d_fc2_b = dq.sum(axis=1, keepdims=True)
    da1 = dq @ stack.fc2_w.transpose(0, 2, 1)
    dz1 = da1 * (1.0 - a1 * a1)
    d_fc1_w = h_last.transpose(0, 2, 1) @ dz1
    d_fc1_b = dz1.sum(axis=1, keepdims=True)
    dh_last = dz1 @ stack.fc1_w.transpose(0, 2, 1)

    # Upstream gradient w.r.t. the top layer's hidden sequence.
    d_seq, dz = cache.grad_h, cache.grad_z
    d_seq.fill(0.0)
    d_seq[:, -1] = dh_last
    dz_steps = dz.reshape(n, t, b, 4, h).transpose(0, 1, 3, 2, 4)  # (N, T, 4, B, H) view
    fac = np.empty((n, 4, b, h))  # a step's factors that do not depend on dc
    dh, dh_rec, dc, dc_o = (np.empty((n, b, h)) for _ in range(4))

    grads = [d_fc1_w, d_fc1_b, d_fc2_w, d_fc2_b]
    for li in range(len(stack.layers) - 1, -1, -1):
        layer = stack.layers[li]
        gates, cells, tcells = cache.gates[li], cache.cells[li], cache.tanh_cells[li]
        w_rec_t = np.ascontiguousarray(_gate_minor(layer.w_rec).transpose(0, 2, 1))
        dh_rec.fill(0.0)
        dc.fill(0.0)
        for step in range(t - 1, -1, -1):
            g, tc = gates[:, step], tcells[:, step]
            np.subtract(1.0, g[:, :3], out=fac[:, :3])
            fac[:, :3] *= g[:, :3]                    # s(1-s) of i, f, o
            fac[:, 0] *= g[:, 3]                      # input: i(1-i) * g
            if step > 0:
                fac[:, 1] *= cells[:, step - 1]       # forget: f(1-f) * c_prev
            else:
                fac[:, 1] = 0.0
            fac[:, 2] *= tc                           # output: o(1-o) * tanh(c)
            np.multiply(g[:, 3], g[:, 3], out=fac[:, 3])
            np.subtract(1.0, fac[:, 3], out=fac[:, 3])
            fac[:, 3] *= g[:, 0]                      # cell candidate: (1-g^2) * i
            np.multiply(tc, tc, out=dc_o)
            np.subtract(1.0, dc_o, out=dc_o)
            dc_o *= g[:, 2]                           # (1 - tanh(c)^2) * o
            np.add(d_seq[:, step], dh_rec, out=dh)
            dc_o *= dh
            dc += dc_o
            dzs = dz_steps[:, step]
            np.multiply(fac[:, :2], dc[:, None], out=dzs[:, :2])
            np.multiply(fac[:, 2], dh, out=dzs[:, 2])
            np.multiply(fac[:, 3], dc, out=dzs[:, 3])
            if step > 0:  # step 0's recurrent gradient would reach the zero initial state
                np.matmul(dz[:, step], w_rec_t, out=dh_rec)
                dc *= g[:, 1]

        dz_flat = dz.reshape(n, t * b, 4 * h)
        # Recurrent weights see the hidden state one step earlier; step 0
        # contributes nothing (zero initial hidden state).
        h_prev = cache.hiddens[li][:, : t - 1].reshape(n, (t - 1) * b, h)
        d_w_rec = h_prev.transpose(0, 2, 1) @ dz_flat[:, b:]
        x_in = (cache.x if li == 0 else cache.hiddens[li - 1]).reshape(n, t * b, -1)
        d_w_in = x_in.transpose(0, 2, 1) @ dz_flat
        d_bias = dz_flat.sum(axis=1, keepdims=True)
        grads[:0] = map(_gate_major, (d_w_in, d_w_rec, d_bias))
        if li > 0:
            # Lower layer's hidden dim equals h, so d_seq can be rebuilt in place.
            np.matmul(dz_flat, _gate_minor(layer.w_in).transpose(0, 2, 1),
                      out=d_seq.reshape(n, t * b, h))
    return grads


def forward(net: QNetwork, x: np.ndarray) -> tuple[np.ndarray, StackCache]:
    """Cached forward of one network on a ``(B, T, D)`` batch or one ``(T, D)``
    state; returns (q-values, cache for :func:`backward`)."""
    x = np.asarray(x, dtype=np.float64)
    q, cache = forward_stack(net, x.reshape((1, -1) + x.shape[-2:]), cache=True)
    return q.reshape(x.shape[:-2] + (NUM_ACTIONS,)), cache


def backward(net: QNetwork, cache: StackCache, dq: np.ndarray) -> list[np.ndarray]:
    """Gradients of sum(dq * q) after :func:`forward`, shaped like :func:`param_list`."""
    return backward_stack(net, cache, np.asarray(dq, dtype=np.float64).reshape(1, -1, NUM_ACTIONS))


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
    grad = np.clip(diff, -delta, delta)
    # grad equals diff wherever the quadratic branch is taken; squaring it
    # cannot overflow on the elements the linear branch keeps.
    loss = np.where(quad, 0.5 * grad * grad, delta * (absd - 0.5 * delta))
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
    """Write one network atomically: the dims header, then every parameter in
    :func:`param_list` order as little-endian float64, LSTM blocks as
    (rows, 4H) with gate columns in i, f, o, g order.  Refuses non-finite
    weights."""
    if len(net) != 1:
        raise ValueError(f"a checkpoint holds one network, got {len(net)}")
    params = [_gate_minor(p) if p.ndim == 4 else p for p in param_list(net)]
    if not all(np.isfinite(p).all() for p in params):
        raise PhaseseekError(f"{path}: refusing to save non-finite network weights")
    header = _CKPT_HEADER.pack(
        CKPT_MAGIC, CKPT_VERSION, net.input_dim, net.hidden_dim, net.num_layers,
        FC1_UNITS, NUM_ACTIONS,
    )
    write_atomic(path, header + b"".join(p.astype("<f8").tobytes() for p in params))


def load_checkpoint(path) -> QNetwork:
    """Read a network written by :func:`save_checkpoint`."""
    raw = Path(path).read_bytes()
    if len(raw) < _CKPT_HEADER.size or raw[:4] != CKPT_MAGIC:
        raise PhaseseekError(f"{path}: not a network checkpoint")
    _, version, d, h, m, fc1, actions = _CKPT_HEADER.unpack_from(raw)
    if version != CKPT_VERSION:
        raise PhaseseekError(f"{path}: unsupported checkpoint version {version}")
    if fc1 != FC1_UNITS or actions != NUM_ACTIONS:
        raise PhaseseekError(f"{path}: head dims {fc1}/{actions} not supported")
    if min(d, h, m) < 1:
        raise PhaseseekError(f"{path}: zero dimension in header (D={d}, H={h}, layers={m})")
    # Check the payload length against the header dims before allocating
    # anything the header sizes.
    values = _param_count(d, h, m)
    payload = len(raw) - _CKPT_HEADER.size
    if payload < 8 * values:
        raise PhaseseekError(f"{path}: checkpoint payload truncated "
                             f"({payload} bytes, header dims need {8 * values})")
    if payload > 8 * values:
        raise PhaseseekError(f"{path}: trailing bytes in checkpoint")
    flat = np.frombuffer(raw, dtype="<f8", offset=_CKPT_HEADER.size)
    if not np.isfinite(flat).all():
        raise PhaseseekError(f"{path}: checkpoint holds NaN or Inf weights")
    shapes = _file_shapes(d, h, m)
    ends = np.cumsum([math.prod(s) for s in shapes])
    return _from_file_layout(d, h, [a.reshape(s) for a, s in zip(np.split(flat, ends[:-1]), shapes)])
