"""Row-major reference kernel: the LSTM forward and backward that
``phaseseek.nets`` ran before training moved onto the gate-major stack
kernel.  Test-only oracle: ``forward_stack``/``backward_stack`` must match
it bit for bit at the batch sizes the kernel documents.

Layout: weights are the checkpoint file's, kept in a :class:`RowNetwork`:
an LSTM layer's blocks are (rows, 4H) with gate columns in the order
(i, f, o, g); activations are ``(steps, batch, 4H)``.  ``forward_batch``
runs one layer at a time and ``backward_batch`` replays the steps in
reverse.  The weights come from :func:`init_row_network`, a copy of
``init_qnetwork``'s draws, and :func:`kernel_layout` moves row-layout
arrays into the kernel's layout; neither uses ``phaseseek.nets``'
conversions, so tests that compare the two kernels check the layout too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from phaseseek.errors import PhaseseekError
from phaseseek.nets import FC1_UNITS, NUM_ACTIONS, LstmLayer, QNetwork


@dataclass
class RowLayer:
    w_in: np.ndarray   # (din, 4H), gate columns in i, f, o, g order
    w_rec: np.ndarray  # (H, 4H)
    bias: np.ndarray   # (4H,)


@dataclass
class RowNetwork:
    """One network's parameters in the checkpoint file's layout."""

    input_dim: int
    hidden_dim: int
    layers: list[RowLayer]
    fc1_w: np.ndarray  # (H, FC1_UNITS)
    fc1_b: np.ndarray  # (FC1_UNITS,)
    fc2_w: np.ndarray  # (FC1_UNITS, NUM_ACTIONS)
    fc2_b: np.ndarray  # (NUM_ACTIONS,)

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def params(self) -> list[np.ndarray]:
        """Every array in ``param_list`` order (views)."""
        out = [w for layer in self.layers for w in (layer.w_in, layer.w_rec, layer.bias)]
        return out + [self.fc1_w, self.fc1_b, self.fc2_w, self.fc2_b]


def init_row_network(input_dim: int, hidden_dim: int, num_layers: int, seed: int) -> RowNetwork:
    """``init_qnetwork``'s uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) draws, in
    its order, kept in row layout."""
    rng = np.random.default_rng(seed)
    h = hidden_dim

    def uniform(fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    layers = []
    din = input_dim
    for _ in range(num_layers):
        layers.append(RowLayer(uniform(din, (din, 4 * h)), uniform(h, (h, 4 * h)),
                               uniform(h, (4 * h,))))
        din = h
    return RowNetwork(input_dim, h, layers,
                      uniform(h, (h, FC1_UNITS)), uniform(h, (FC1_UNITS,)),
                      uniform(FC1_UNITS, (FC1_UNITS, NUM_ACTIONS)),
                      uniform(FC1_UNITS, (NUM_ACTIONS,)))


def kernel_layout(params: list[np.ndarray], num_layers: int) -> list[np.ndarray]:
    """Row-layout arrays in ``param_list`` order, moved into the kernel's
    layout with a leading network axis of 1: an LSTM block (rows, 4H)
    becomes (1, 4, rows, H) with the i, f, o blocks negated, a head array
    (rows, units) or (units,) becomes (1, rows, units) or (1, 1, units)."""
    out = []
    for i, w in enumerate(params):
        w = np.asarray(w, dtype=np.float64)
        if i < 3 * num_layers:
            rows = w.reshape(-1, 4, w.shape[-1] // 4)  # (rows, gate, H)
            block = np.stack([rows[:, gate] for gate in range(4)])[None]
            block[:, :3] *= -1.0
            out.append(block)
        else:
            out.append(w.reshape((1, -1, w.shape[-1])).copy())
    return out


def kernel_network(row: RowNetwork) -> QNetwork:
    """A :class:`QNetwork` holding ``row``'s weights, built by :func:`kernel_layout`."""
    p = kernel_layout(row.params(), row.num_layers)
    layers = [LstmLayer(*p[3 * i: 3 * i + 3]) for i in range(row.num_layers)]
    return QNetwork(row.input_dim, row.hidden_dim, layers, *p[-4:])


@dataclass
class ForwardCache:
    net: RowNetwork
    x_steps: int
    batch: int
    layer_inputs: list[np.ndarray]   # (T, B, din) per layer
    gates: list[np.ndarray]          # (T, B, 4H) post-activation
    cells: list[np.ndarray]          # (T, B, H)
    tanh_cells: list[np.ndarray]     # (T, B, H)
    hiddens: list[np.ndarray]        # (T, B, H)
    h_last: np.ndarray               # (B, H)
    a1: np.ndarray                   # (B, FC1_UNITS)


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
    net: RowNetwork,
    x: np.ndarray,
    need_cache: bool = True,
) -> tuple[np.ndarray, ForwardCache | None]:
    """Evaluate a batch of sequences; ``x`` is (B, T, D) or (T, D).

    Returns Q-values of shape (B, NUM_ACTIONS) and, when requested, the
    activation record consumed by :func:`backward_batch`.
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

    seq = np.ascontiguousarray(x.transpose(1, 0, 2))  # (T, B, D)
    layer_inputs, all_gates, all_cells, all_tcells, all_hiddens = [], [], [], [], []
    rec = np.empty((b, 4 * h))
    for li, layer in enumerate(net.layers):
        gates = np.empty((t, b, 4 * h))
        np.dot(seq.reshape(t * b, -1), layer.w_in, out=gates.reshape(t * b, 4 * h))
        gates += layer.bias
        cells = np.empty((t, b, h))
        tcells = np.empty((t, b, h))
        hiddens = np.empty((t, b, h))
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


def backward_batch(net: RowNetwork, cache: ForwardCache, dq: np.ndarray) -> list[np.ndarray]:
    """Exact gradients of sum(dq * q) w.r.t. every parameter.

    ``cache`` must come from a ``forward_batch`` call on the same network;
    gradients are returned in row layout, in ``param_list`` order.
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
    d_seq = np.empty((t, b, h))
    d_seq.fill(0.0)
    d_seq[-1] = dh_last

    d_z = np.empty((t, b, 4 * h))  # shared by all layers
    dh = np.empty((b, h))
    dh_rec = np.empty((b, h))
    dc = np.empty((b, h))
    t1 = np.empty((b, h))
    t2 = np.empty((b, h))

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
        d_w_rec = np.empty((h, 4 * h))
        np.dot(hiddens[: t - 1].reshape((t - 1) * b, h).T, dz_flat[b:], out=d_w_rec)
        din = x_in.shape[2]
        d_w_in = np.empty((din, 4 * h))
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
