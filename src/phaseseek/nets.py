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
shaped exactly like :func:`param_list`.  A cached pass may also run its
batch as row parts, each part's rows through :func:`forward_rows` and
:func:`backward_rows`, before :func:`weight_gradients` sums over the whole
batch; training runs the parts in separate processes.  :func:`forward` and
:func:`backward` are its one-network wrappers, and :func:`q_values`
evaluates states under chosen networks of a stack for greedy search.
Training code is the single writer of a network's arrays; frozen networks
are safe to share across threads.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PhaseseekError
from .features import check_values, whole_rows, write_atomic

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


def _gate_major(w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # (N, rows, 4H) gate-minor weights in the kernel layout: (N, 4, rows, H),
    # sigmoid blocks negated, in ``out`` or a fresh array.
    n, rows, h4 = w.shape
    if out is None:
        out = np.empty((n, 4, rows, h4 // 4))
    np.copyto(out, w.reshape(n, rows, 4, h4 // 4).transpose(0, 2, 1, 3))
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


def _empty(input_dim: int, hidden_dim: int, num_layers: int, count: int) -> QNetwork:
    # ``count`` uninitialized networks of one geometry, each parameter in
    # one array of its own.
    h = hidden_dim
    shapes = []
    for din in [input_dim] + [h] * (num_layers - 1):
        shapes += [(4, din, h), (4, h, h), (4, 1, h)]
    shapes += [(h, FC1_UNITS), (1, FC1_UNITS), (FC1_UNITS, NUM_ACTIONS), (1, NUM_ACTIONS)]
    return _assemble(input_dim, hidden_dim, [np.empty((count,) + shape) for shape in shapes])


def _write_file_layout(net: QNetwork, params: list[np.ndarray]) -> None:
    # Write one network's parameters, given in file layout (see
    # _file_shapes), into the arrays of the one-network ``net``.
    for dst, src in zip(param_list(net), params):
        if dst.ndim == 4:
            _gate_major(src.reshape(1, -1, 4 * net.hidden_dim), out=dst)
        else:
            dst[...] = src.reshape(dst.shape)


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
    check_values(_param_count(input_dim, hidden_dim, num_layers),
                 f"the weights of input_dim {input_dim}, hidden_dim {hidden_dim} and "
                 f"num_layers {num_layers}")
    rng = np.random.default_rng(seed)
    params = []
    for shape in _file_shapes(input_dim, hidden_dim, num_layers):
        if len(shape) == 2:  # a bias shares the fan-in of the weights before it
            bound = 1.0 / np.sqrt(shape[0])
        params.append(rng.uniform(-bound, bound, size=shape))
    net = _empty(input_dim, hidden_dim, num_layers, 1)
    _write_file_layout(net, params)
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
    return copy_network(net, np.empty)


def copy_network(net: QNetwork, alloc) -> QNetwork:
    """A copy of ``net`` in the arrays ``alloc(shape)`` makes, such as views
    of shared memory."""
    params = [alloc(p.shape) for p in param_list(net)]
    for dst, src in zip(params, param_list(net)):
        dst[...] = src
    return _assemble(net.input_dim, net.hidden_dim, params)


def copy_params_into(src: QNetwork, dst: QNetwork) -> None:
    """Overwrite dst's parameters with src's values (shapes must match)."""
    for p_src, p_dst in zip(param_list(src), param_list(dst)):
        if p_src.shape != p_dst.shape:
            raise ValueError("network shapes do not match")
        p_dst[...] = p_src


def _joined(parts: list[np.ndarray]) -> np.ndarray:
    # The parts concatenated, as a view when they already are consecutive
    # rows of one array, in order.
    held = [whole_rows(p) for p in parts]
    if all(h is not None and h[0] is held[0][0] for h in held):
        owner, first = held[0]
        starts = np.cumsum([first] + [len(p) for p in parts]).tolist()
        if [row for _, row in held] == starts[:-1]:
            return owner[first: starts[-1]]
    return np.concatenate(parts)


def stack_networks(nets: list[QNetwork]) -> QNetwork:
    """Concatenate networks of one (input dim, hidden dim, layers) geometry.

    When the networks already are consecutive rows of one stack, in order
    (as :func:`load_checkpoints` loads them), the result views those rows;
    otherwise it is a copy, which later changes to the networks do not reach.
    """
    if not nets:
        raise ValueError("need at least one network")
    first = nets[0]
    geometry = (first.input_dim, first.hidden_dim, first.num_layers)
    if any((n.input_dim, n.hidden_dim, n.num_layers) != geometry for n in nets):
        raise ValueError("stacked networks must share input dim, hidden dim and layers")
    return _assemble(first.input_dim, first.hidden_dim,
                     [_joined(list(ps)) for ps in zip(*map(param_list, nets))])


# ---------------------------------------------------------------------------
# The LSTM kernel: forward and backward
# ---------------------------------------------------------------------------

def _arrays(shapes: list[tuple[int, ...]], block: np.ndarray | None = None) -> list[np.ndarray]:
    # Uninitialized arrays carved in order from ``block`` or from a new
    # block.  The allocator reuses a freed block of this size, so repeated
    # passes of one geometry (one per training update) do not touch fresh
    # pages; separate arrays did, and cost about 3 ms per update.
    sizes = [math.prod(s) for s in shapes]
    if block is None:
        block = np.empty(sum(sizes))
    out, offset = [], 0
    for shape, size in zip(shapes, sizes):
        out.append(block[offset: offset + size].reshape(shape))
        offset += size
    return out


@dataclass
class StackCache:
    """Every step's activations of one cached pass, and its head's rows.

    The arrays are views of one block (see :func:`new_cache`).  A pass may
    run its B rows as P parts of B/P rows, part p being rows
    [p B/P, (p + 1) B/P) of every step (see :func:`forward_rows`).  Gates
    are kept gate-major per part, so part p's gates at a step take exactly
    the memory of that step's gate-minor rows of the part, where
    :func:`backward_rows` writes their gradients.  The cache serves one
    :func:`weight_gradients`, which marks it ``spent``.
    """

    stack: QNetwork
    x: np.ndarray           # (N, T, B, D) inputs, step-major
    gates: np.ndarray       # (layers, N, T, P, 4, B/P, H) i, f, o, g after activation
    cells: np.ndarray       # (layers, N, T, B, H)
    tanh_cells: np.ndarray  # (layers, N, T, B, H)
    hiddens: np.ndarray     # (layers, N, T, B, H)
    a1: np.ndarray          # (N, B, FC1_UNITS)
    dq: np.ndarray          # (N, B, NUM_ACTIONS) upstream gradient of the Q-values
    dz1: np.ndarray         # (N, B, FC1_UNITS) gradient of fc1's pre-activation
    spent: bool = False

    def rows(self, part: int) -> slice:
        """The batch rows of part ``part``."""
        size = self.x.shape[2] // self.gates.shape[3]
        return slice(part * size, (part + 1) * size)


def new_cache(stack: QNetwork, batch: int, steps: int, parts: int = 1,
              block: np.ndarray | None = None) -> StackCache:
    """Room for a cached pass of ``stack`` on ``batch`` states of ``steps``
    steps, run as ``parts`` row parts of one size, carved from ``block`` (a
    flat float64 array of ``len(stack)`` times :func:`cached_pass_values`
    values, such as a view of shared memory) or from a new block."""
    if batch % parts:
        raise ValueError(f"a batch of {batch} does not split into {parts} equal parts")
    n, h, depth = len(stack), stack.hidden_dim, stack.num_layers
    rows = (depth, n, steps, batch, h)
    shapes = [(depth, n, steps, parts, 4, batch // parts, h), rows, rows, rows,
              (n, steps, batch, stack.input_dim), (n, batch, FC1_UNITS),
              (n, batch, NUM_ACTIONS), (n, batch, FC1_UNITS)]
    gates, cells, tcells, hiddens, x, a1, dq, dz1 = _arrays(shapes, block)
    return StackCache(stack, x, gates, cells, tcells, hiddens, a1, dq, dz1)


def _recur(stack: QNetwork, seq: np.ndarray, gates: np.ndarray, cells: np.ndarray,
           tcells: np.ndarray, hiddens: np.ndarray) -> np.ndarray:
    # Every layer over the (N, T, B, D) steps ``seq``; returns the top
    # layer's last hidden state (N, B, H).  Gates are (shared, N, kept, 4,
    # B, H), cells and hiddens (layers, N, kept, B, H) and tanh(cells)
    # (shared, N, kept, B, H): kept is T, or 1 to keep only the current
    # step, and shared is the layer count, or 1 when the layers share the
    # gate and tanh(cell) blocks.
    n, t, b, _ = seq.shape
    shared, kept = gates.shape[0], gates.shape[2]
    rec = np.empty((n, 4, b, stack.hidden_dim))
    prod = np.empty((n, b, stack.hidden_dim))
    # Views of each layer's blocks at each kept step, built once, so an
    # uncached pass reuses the same views at every step.
    blocks = [[(cells[li, :, k], hiddens[li, :, k, None], hiddens[li, :, k], z, z[:, :3],
                z[:, 0], z[:, 1], z[:, 2], z[:, 3], tcells[li % shared, :, k])
               for k, z in enumerate(gates[li % shared].transpose(1, 0, 2, 3, 4))]
              for li in range(len(stack.layers))]
    with np.errstate(over="ignore"):
        for step in range(t):
            k, k_prev = step % kept, (step - 1) % kept
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
                # The cell state starts at zero: f * +0.0 at step 0.
                np.multiply(f_gate, c_prev if step else 0.0, out=c)
                np.multiply(i_gate, g_gate, out=prod)
                c += prod
                np.tanh(c, out=tc)
                np.multiply(o_gate, tc, out=hid_out)
                inp = hid
    return hiddens[-1][:, -1]


def forward_rows(cache: StackCache, x: np.ndarray, part: int = 0) -> np.ndarray:
    """Q-values (N, B/P, NUM_ACTIONS) of row part ``part`` of a cached pass
    on its states ``x`` (N, B/P, T, D), whose activations it keeps in
    ``cache``.  A part writes only its own rows, so separate processes may
    run the parts of one cache in shared memory; when B/P and B are
    multiples of 4 of at most 256, every row's values equal those of a
    one-part pass."""
    stack, rows = cache.stack, cache.rows(part)
    seq = cache.x[:, :, rows]  # kept for the backward's weight gradients
    seq[...] = np.asarray(x, dtype=np.float64).transpose(0, 2, 1, 3)
    h_last = _recur(stack, seq, cache.gates[:, :, :, part],
                    *(a[:, :, :, rows] for a in (cache.cells, cache.tanh_cells, cache.hiddens)))
    a1 = np.tanh(h_last @ stack.fc1_w + stack.fc1_b, out=cache.a1[:, rows])
    return a1 @ stack.fc2_w + stack.fc2_b


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
    ``(q, StackCache)`` for :func:`backward_stack`: one :func:`forward_rows`
    part on a :func:`new_cache`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 4 or len(x) != len(stack):
        raise PhaseseekError(f"need a ({len(stack)}, B, T, D) batch, got shape {x.shape}")
    n, b, t, d = x.shape
    if d != stack.input_dim:
        raise PhaseseekError(
            f"input dim {d} does not match network input dim {stack.input_dim}"
        )
    if cache:
        room = new_cache(stack, b, t)
        return forward_rows(room, x), room
    # An uncached pass keeps only the current step, and its layers share the
    # gate and tanh(cell) blocks.
    h, depth = stack.hidden_dim, len(stack.layers)
    room = _arrays([(1, n, 1, 4, b, h), (depth, n, 1, b, h), (1, n, 1, b, h), (depth, n, 1, b, h)])
    h_last = _recur(stack, x.transpose(0, 2, 1, 3), *room)
    a1 = np.tanh(h_last @ stack.fc1_w + stack.fc1_b)
    return a1 @ stack.fc2_w + stack.fc2_b


def cached_pass_values(input_dim: int, hidden_dim: int, num_layers: int, steps: int,
                       batch: int) -> int:
    """Values in the one block a cached :func:`forward_stack` pass allocates
    for one network on a ``(batch, steps, input_dim)`` batch (see
    :func:`new_cache`): the inputs and every step's gates, cells,
    tanh(cells) and hiddens, which :func:`backward_stack` reuses for its
    gradients, and the head's activations and gradients.  Python ints, so
    no overflow."""
    return (steps * batch * (input_dim + 7 * hidden_dim * num_layers)
            + batch * (2 * FC1_UNITS + NUM_ACTIONS))


def uncached_pass_values(input_dim: int, hidden_dim: int, num_layers: int, steps: int,
                         batch: int) -> int:
    """Values an uncached :func:`forward_stack` pass of one network on a
    ``(batch, steps, input_dim)`` batch holds at once: the batch, as
    :func:`q_values` zero-pads it, and one step's gates, cells, tanh(cells),
    hiddens and products.  Python ints, so no overflow."""
    return batch * (steps * input_dim + hidden_dim * (2 * num_layers + 10))


# Batch geometry of q_values.  OpenBLAS's x86-64 dgemm rounds a product row
# differently when the row falls in a remainder block of fewer than four
# rows (its micro-kernel height), and the 64x50 head product changes path
# again from about 1000 rows.  Padding each network's states with zero
# states to a multiple of four rows, at most 256, keeps each state's
# Q-values bit-identical whatever other states (or networks) share its
# pass; tests/test_inference.py checks this on the host BLAS.
_ROW_MULTIPLE = 4
_MAX_ROWS = 256


def _pass_width(states: int) -> int:
    return min(states + -states % _ROW_MULTIPLE, _MAX_ROWS)


def padded_rows(states: int) -> int:
    """Rows :func:`q_values` zero-pads ``states`` states of its busiest
    network to, over all its passes; every network gets as many."""
    width = _pass_width(states)
    return -(-states // width) * width


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
    width = _pass_width(busiest)
    passes, row = np.divmod(slot, width)
    x = np.zeros((-(-busiest // width), len(counts), width) + states.shape[1:])
    x[passes, net, row] = states
    stack = stack[first: first + len(counts)]
    return np.stack([forward_stack(stack, batch) for batch in x])[passes, net, row]


def backward_rows(cache: StackCache, part: int = 0) -> None:
    """Row part ``part`` of the backward of a cached pass, from the part's
    rows of ``cache.dq``: their rows of ``cache.dz1`` and, layer by layer
    from the top and step by step from the last, their gate gradients and
    the gradient each layer passes down.  Each step's gate gradients are
    written gate-minor over the step's gates once those are read, and the
    gradient passed down over the layer's tanh(cells), which are no longer
    read.  Like :func:`forward_rows`, a part reads and writes only its own
    rows, and its values do not depend on the other rows'.
    :func:`weight_gradients` then sums over the batch."""
    stack, rows = cache.stack, cache.rows(part)
    n, t, b, _ = cache.x.shape
    h, parts = stack.hidden_dim, cache.gates.shape[3]
    size = b // parts

    # Dense head.
    a1, dz1 = cache.a1[:, rows], cache.dz1[:, rows]
    da1 = cache.dq[:, rows] @ stack.fc2_w.transpose(0, 2, 1)
    np.multiply(da1, 1.0 - a1 * a1, out=dz1)
    dh_last = dz1 @ stack.fc1_w.transpose(0, 2, 1)

    # Upstream gradient w.r.t. a layer's hidden sequence: for the top layer
    # dh_last at the last step and zero before, for a lower one the rows
    # the layer above wrote.
    d_seq = None
    fac = np.empty((n, 4, size, h))  # a step's factors that do not depend on dc
    dh, dh_rec, dc, dc_next, dc_o = (np.empty((n, size, h)) for _ in range(5))
    for li in range(len(stack.layers) - 1, -1, -1):
        layer = stack.layers[li]
        gates = cache.gates[li, :, :, part]
        cells, tcells = cache.cells[li][:, :, rows], cache.tanh_cells[li][:, :, rows]
        # The part's gate gradients, gate-minor, in its gates' room: (N, T,
        # B/P, 4H), and each step's as an (N, 4, B/P, H) view.
        dz = cache.gates[li].reshape(n, t, parts, size, 4 * h)[:, :, part]
        dz_steps = cache.gates[li].reshape(n, t, parts, size, 4, h)[:, :, part].transpose(
            0, 1, 3, 2, 4)
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
            if d_seq is not None:
                np.add(d_seq[:, step], dh_rec, out=dh)
            else:
                np.add(dh_last if step == t - 1 else 0.0, dh_rec, out=dh)
            dc_o *= dh
            dc += dc_o
            if step > 0:  # the forget gate, read before its block is overwritten
                np.multiply(dc, g[:, 1], out=dc_next)
            dzs = dz_steps[:, step]
            np.multiply(fac[:, :2], dc[:, None], out=dzs[:, :2])
            np.multiply(fac[:, 2], dh, out=dzs[:, 2])
            np.multiply(fac[:, 3], dc, out=dzs[:, 3])
            if step > 0:  # step 0's recurrent gradient would reach the zero initial state
                np.matmul(dz[:, step], w_rec_t, out=dh_rec)
                dc, dc_next = dc_next, dc
        if li > 0:
            # The lower layer's hidden dim equals h, so its upstream gradient
            # fits in this layer's tanh(cells).  One part's rows are every
            # step's rows, which one product takes, as the reference kernel.
            d_seq = tcells
            w_in_t = _gate_minor(layer.w_in).transpose(0, 2, 1)
            if parts == 1:
                np.matmul(dz.reshape(n, t * b, 4 * h), w_in_t, out=d_seq.reshape(n, t * b, h))
            else:
                np.matmul(dz, w_in_t[:, None], out=d_seq)


def weight_gradients(cache: StackCache,
                     recurrent: list[np.ndarray] | None = None) -> list[np.ndarray]:
    """Exact gradients of sum(dq * q) w.r.t. every stacked network's
    parameters, shaped like :func:`param_list`'s, once :func:`backward_rows`
    has run on every part of ``cache``.  Each sum over the batch is one
    product or sum over the whole batch, rows in (step, row) order whatever
    the parts.  The gate gradients are gate-minor, so the products over 4H
    sum in the checkpoint file's column order; the weight gradients are then
    moved into the kernel layout, which is exact.  With ``recurrent``, the
    recurrent weights' gradients are not computed here: their places hold
    these arrays, one per layer, which :func:`recurrent_gradients` fills
    (training runs it in another process).  Marks the cache spent."""
    _consume(cache)
    cache.spent = True
    stack = cache.stack
    n, t, b, _ = cache.x.shape
    h = stack.hidden_dim
    h_last = cache.hiddens[-1][:, -1]
    grads = [h_last.transpose(0, 2, 1) @ cache.dz1, cache.dz1.sum(axis=1, keepdims=True),
             cache.a1.transpose(0, 2, 1) @ cache.dq, cache.dq.sum(axis=1, keepdims=True)]
    for li in range(len(stack.layers) - 1, -1, -1):
        dz_flat = cache.gates[li].reshape(n, t * b, 4 * h)
        x_in = (cache.x if li == 0 else cache.hiddens[li - 1]).reshape(n, t * b, -1)
        d_w_in = x_in.transpose(0, 2, 1) @ dz_flat
        d_bias = dz_flat.sum(axis=1, keepdims=True)
        d_w_rec = _gate_major(_recurrent_product(cache, li)) if recurrent is None else recurrent[li]
        grads[:0] = [_gate_major(d_w_in), d_w_rec, _gate_major(d_bias)]
    return grads


def _recurrent_product(cache: StackCache, li: int) -> np.ndarray:
    # Layer li's recurrent weight gradient, gate-minor.  Recurrent weights
    # see the hidden state one step earlier; step 0 contributes nothing
    # (zero initial hidden state).
    n, t, b, _ = cache.x.shape
    h = cache.stack.hidden_dim
    h_prev = cache.hiddens[li][:, : t - 1].reshape(n, (t - 1) * b, h)
    return h_prev.transpose(0, 2, 1) @ cache.gates[li].reshape(n, t * b, 4 * h)[:, b:]


def recurrent_gradients(cache: StackCache, out: list[np.ndarray]) -> None:
    """Each layer's recurrent weight gradient, shaped like its ``w_rec``,
    into ``out``, bottom layer first, as :func:`weight_gradients` computes
    them, once :func:`backward_rows` has run on every part of ``cache``."""
    for li, room in enumerate(out):
        _gate_major(_recurrent_product(cache, li), out=room)


def _consume(cache: StackCache) -> None:
    # Refuse a cache whose gradients a backward already took.
    if cache.spent:
        raise PhaseseekError("cache was already consumed by a backward pass")


def backward_stack(stack: QNetwork, cache: StackCache, dq: np.ndarray) -> list[np.ndarray]:
    """Exact gradients of sum(dq * q) w.r.t. every stacked network's parameters.

    ``cache`` must come from a cached ``forward_stack`` pass on ``stack``
    that no backward has consumed yet; ``dq`` is (N, B, NUM_ACTIONS).
    Returns one array per parameter, shaped like :func:`param_list`'s:
    :func:`backward_rows` on every part of the pass, then
    :func:`weight_gradients`.  The gradients take the cache's room, so the
    cache is spent afterwards.
    """
    if cache is None or cache.stack is not stack:
        raise PhaseseekError("cache does not belong to this network")
    _consume(cache)
    n, _, b, _ = cache.x.shape
    dq = np.asarray(dq, dtype=np.float64)
    if dq.shape != (n, b, NUM_ACTIONS):
        raise PhaseseekError(f"dq shape {dq.shape} does not match the ({n}, {b}) batch")
    cache.dq[...] = dq
    for part in range(cache.gates.shape[3]):
        backward_rows(cache, part)
    return weight_gradients(cache)


def splits_exactly(stack: QNetwork, batch: int, steps: int, parts: int,
                   block: np.ndarray | None = None) -> bool:
    """Whether a pass of ``stack`` on ``batch`` states of ``steps`` steps,
    run as ``parts`` row parts, reproduces the one-part pass bit for bit with
    the BLAS in use: the Q-values, everything :func:`backward_rows` leaves
    in the cache, and an uncached pass per part.  A BLAS may pick a
    product's kernel by its shape, and its kernels round differently, so a
    row's values can depend on the rows that share its product (OpenBLAS
    0.3.31 does so at hidden dim 8).  Random states and upstream gradients
    show it; both passes run in ``block`` (see :func:`new_cache`) or in a
    new block."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(len(stack), batch, steps, stack.input_dim))
    dq = rng.normal(size=(len(stack), batch, NUM_ACTIONS))
    digests = []
    for count in (1, parts):
        cache = new_cache(stack, batch, steps, count, block)
        rows = [cache.rows(part) for part in range(count)]
        digest = hashlib.sha1()
        for values in ([forward_rows(cache, x[:, r], part) for part, r in enumerate(rows)],
                       [forward_stack(stack, x[:, r]) for r in rows]):
            digest.update(np.concatenate(values, axis=1))
        cache.dq[...] = dq
        for part in range(count):
            backward_rows(cache, part)
        for room in (cache.x, cache.gates, cache.cells, cache.tanh_cells, cache.hiddens,
                     cache.a1, cache.dz1):
            digest.update(room)
        digests.append(digest.digest())
    return digests[0] == digests[1]


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


def _checked_dims(path, head: bytes, size: int) -> tuple[int, int, int]:
    # (D, H, layers) from a checkpoint's first bytes, checked against the
    # file's size in bytes before anything the header sizes is allocated.
    if len(head) < _CKPT_HEADER.size or head[:4] != CKPT_MAGIC:
        raise PhaseseekError(f"{path}: not a network checkpoint")
    _, version, d, h, m, fc1, actions = _CKPT_HEADER.unpack_from(head)
    if version != CKPT_VERSION:
        raise PhaseseekError(f"{path}: unsupported checkpoint version {version}")
    if fc1 != FC1_UNITS or actions != NUM_ACTIONS:
        raise PhaseseekError(f"{path}: head dims {fc1}/{actions} not supported")
    if min(d, h, m) < 1:
        raise PhaseseekError(f"{path}: zero dimension in header (D={d}, H={h}, layers={m})")
    values = _param_count(d, h, m)
    payload = size - _CKPT_HEADER.size
    if payload < 8 * values:
        raise PhaseseekError(f"{path}: checkpoint payload truncated "
                             f"({payload} bytes, header dims need {8 * values})")
    if payload > 8 * values:
        raise PhaseseekError(f"{path}: trailing bytes in checkpoint")
    return d, h, m


def _read_geometry(path) -> tuple[int, int, int]:
    # (D, H, layers) of a checkpoint file, checked as load_checkpoint checks
    # it but for the weights' values; reads only the header.
    with open(path, "rb") as fh:
        return _checked_dims(path, fh.read(_CKPT_HEADER.size), os.fstat(fh.fileno()).st_size)


def load_checkpoint(path, out: QNetwork | None = None) -> QNetwork:
    """Read a network written by :func:`save_checkpoint`.

    With ``out``, one network of the file's geometry (such as a row of a
    stack), the weights are written into its arrays and ``out`` is returned.
    """
    raw = Path(path).read_bytes()
    d, h, m = _checked_dims(path, raw[:_CKPT_HEADER.size], len(raw))
    flat = np.frombuffer(raw, dtype="<f8", offset=_CKPT_HEADER.size)
    if not np.isfinite(flat).all():
        raise PhaseseekError(f"{path}: checkpoint holds NaN or Inf weights")
    if out is None:
        out = _empty(d, h, m, 1)
    elif (out.input_dim, out.hidden_dim, out.num_layers, len(out)) != (d, h, m, 1):
        raise PhaseseekError(f"{path}: a network of D={d}, H={h}, layers={m}, expected "
                             f"D={out.input_dim}, H={out.hidden_dim}, layers={out.num_layers}")
    shapes = _file_shapes(d, h, m)
    ends = np.cumsum([math.prod(s) for s in shapes])
    _write_file_layout(out, np.split(flat, ends[:-1]))
    return out


def load_checkpoints(paths) -> list[QNetwork]:
    """The networks of checkpoint files, in order, each a one-row view of a
    stack: the files of one geometry load into one stack, in path order, so
    :func:`stack_networks` of consecutive ones copies nothing.  Every file's
    header is checked before any stack is allocated."""
    geometries = [_read_geometry(path) for path in paths]
    stacks = {g: _empty(*g, geometries.count(g)) for g in dict.fromkeys(geometries)}
    rows = dict.fromkeys(stacks, 0)
    nets = []
    for path, g in zip(paths, geometries):
        nets.append(load_checkpoint(path, out=stacks[g][rows[g]: rows[g] + 1]))
        rows[g] += 1
    return nets
