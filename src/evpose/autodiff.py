"""Dense float64 tensors with reverse-mode differentiation and momentum SGD.

The op catalogue expresses the pose-regression network, its loss and the
per-gate LSTM graph that tests compare against: elementwise arithmetic,
matmul, conv2d, maxpool2d, sigmoid/tanh/relu, reshape/slice, a full
sum, an L2 norm, seeded inverted dropout and ``lstm_sequence``, a whole
LSTM layer run over a sequence as one graph node with a hand-written
backprop-through-time vjp. ``linear_pair`` is no fused op: it composes
matmul and add.
Gradients are accumulated within a single ``backward`` call; tensors are
treated as immutable once they enter a graph.

A gradient is an ndarray or an ``Outer``: the gradient of a leaf weight
in a single-row matmul is the rank-1 product of two vectors, kept as its
factors. ``np.asarray`` densifies an ``Outer``; ``sgd_step`` applies one
without densifying it.

``sgd_step`` alone uses scipy (BLAS ``daxpy``) and imports it on its first
call, so ``import evpose`` and inference never load ``scipy.linalg``.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import NumericError, ShapeError

Array = np.ndarray

_grad_enabled = True


@contextmanager
def no_grad():
    """Disable graph recording (inference mode) within the block."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


_OUTER_BLOCK = 32768  # float64 elements of one multiplied-out Outer block


class Outer:
    """The rank-1 matrix ``u[:, None] * v[None, :]``, kept as ``u`` (n,) and
    ``v`` (m,). ``np.asarray`` returns the product, bit-equal to that
    broadcast multiply, and so does every block from ``blocks``."""

    __slots__ = ("u", "v", "shape")

    def __init__(self, u: Array, v: Array):
        self.u = u
        self.v = v
        self.shape = (u.shape[0], v.shape[0])

    def __array__(self, dtype=None, copy=None) -> Array:
        return np.multiply.outer(self.u, self.v).astype(dtype, copy=False)

    def blocks(self):
        """Yield ``(rows, block)``: the product multiplied out about 256 KB of
        rows at a time into one reused buffer, so a block is valid only
        until the next one is drawn.

        Each block is filled with rows of ``v``, then scaled in place by
        ``u[rows, None]``: a contiguous copy and a two-operand multiply,
        where the broadcast ``u[rows, None] * v`` runs one short loop per
        row. IEEE multiplication commutes, so every element, signed zeros
        included, keeps the bytes of ``u_i * v_j``. ``np.dot``, ``einsum``
        and BLAS ``dger`` give equal values but not equal bytes: they give
        ``+0.0`` where ``u_i * v_j`` is ``-0.0``, and ``dger`` also fuses
        the add that ``sgd_step`` rounds separately."""
        rows = max(1, _OUTER_BLOCK // self.shape[1])
        buf = np.empty((rows, self.shape[1]))
        for r in range(0, self.shape[0], rows):
            u = self.u[r : r + rows, None]
            block = buf[: len(u)]
            block[...] = self.v
            block *= u
            yield slice(r, r + rows), block


class Tensor:
    """A float64 array plus optional provenance for differentiation."""

    __slots__ = ("data", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[Array], tuple] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{grad})"


def tensor(data) -> Tensor:
    """Wrap data as a constant (non-differentiable) tensor."""
    return Tensor(data)


def parameter(data) -> Tensor:
    """Wrap a C-ordered copy of data as a trainable leaf tensor (``sgd_step``
    updates it in place through flat views)."""
    return Tensor(np.array(data, dtype=np.float64, order="C"), requires_grad=True)


def _node(data: Array, parents: tuple[Tensor, ...], vjp: Callable[[Array], tuple]) -> Tensor:
    if not (_grad_enabled and any(p.requires_grad for p in parents)):
        return Tensor(data)
    out = Tensor(data, requires_grad=True)
    out._parents = parents
    out._vjp = vjp
    return out


def _check_same_shape(kind: str, a: Tensor, b: Tensor) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{kind}: shape mismatch {a.data.shape} vs {b.data.shape}")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)
    return _node(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)
    return _node(a.data - b.data, (a, b), lambda g: (g, -g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise (Hadamard) product."""
    _check_same_shape("mul", a, b)
    ad, bd = a.data, b.data
    need_a, need_b = a.requires_grad, b.requires_grad
    return _node(
        ad * bd,
        (a, b),
        lambda g: (g * bd if need_a else None, g * ad if need_b else None),
    )


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of two 2-D tensors. For a single-row ``a`` and a leaf
    ``b`` the gradient of ``b`` is the ``Outer`` of ``a``'s row and ``g``'s
    row; other vjps take only ndarrays, so a non-leaf ``b`` gets ``a.T @ g``."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {ad.shape} and {bd.shape}")
    need_a, need_b = a.requires_grad, b.requires_grad
    leaf_b = b._vjp is None

    def vjp(g: Array) -> tuple:
        ga = g @ bd.T if need_a else None
        if not need_b:
            gb = None
        elif ad.shape[0] == 1 and leaf_b:
            # The row is copied: ``ad`` may view a parameter that sgd_step
            # updates in place before it applies this gradient.
            gb = Outer(ad[0].copy(), g[0])
        else:
            gb = ad.T @ g
        return ga, gb

    return _node(ad @ bd, (a, b), vjp)


def linear_pair(x: Tensor, w_x: Tensor, h: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """x @ w_x + h @ w_h + b, composed from matmul and add in that order.

    No model code calls it. The name stays only because the benchmark's op
    table wraps it, and goes once that table stops wrapping it (ROADMAP
    item 1).
    """
    return add(add(matmul(x, w_x), matmul(h, w_h)), b)


def lstm_forward(x: Array, w_x: Array, w_h: Array, b: Array) -> tuple[Array, Array, Array]:
    """Run one LSTM layer over the rows of ``x`` (S, in) from a zero state.

    ``w_x`` (in, 4H), ``w_h`` (H, 4H) and ``b`` (1, 4H) hold the gate
    columns in i, f, o, g order. Step t computes
    a = x_t w_x + b + h_{t-1} w_h, i/f/o = sigmoid(a), g = tanh(a),
    c_t = f * c_{t-1} + i * g, h_t = o * tanh(c_t).
    Returns the hidden states (S, H), the cell states (S, H) and the
    activated gates (S, 4H).
    """
    if (
        x.ndim != 2
        or x.shape[0] == 0
        or w_h.ndim != 2
        or w_h.shape[1] != 4 * w_h.shape[0]
        or w_x.shape != (x.shape[1], w_h.shape[1])
        or b.shape != (1, w_h.shape[1])
    ):
        raise ShapeError(
            f"lstm_sequence: need x (S>0, in), w_x (in, 4H), w_h (H, 4H), b (1, 4H), "
            f"got {x.shape}, {w_x.shape}, {w_h.shape}, {b.shape}"
        )
    s, hidden = x.shape[0], w_h.shape[0]
    acts = x @ w_x  # all S input projections at once; activated in place below
    acts += b
    cs = np.empty((s, hidden))
    hs = np.empty((s, hidden))
    c_prev = np.zeros(hidden)
    recurrent = np.empty(4 * hidden)
    for t in range(s):
        a = acts[t]
        if t:
            a += np.dot(hs[t - 1], w_h, out=recurrent)
        i, f, o, g = a[:hidden], a[hidden : 2 * hidden], a[2 * hidden : 3 * hidden], a[3 * hidden :]
        sig = a[: 3 * hidden]  # _logistic in place: 0.5 * (tanh(0.5 * v) + 1)
        sig *= 0.5
        np.tanh(a, out=a)  # one call: the halved i/f/o and the g block
        sig += 1.0
        sig *= 0.5
        c = np.multiply(f, c_prev, out=cs[t])  # step 0: 0.0 * f, as from a zero state
        c += i * g
        np.tanh(c, out=hs[t])
        hs[t] *= o
        c_prev = c
    return hs, cs, acts


def lstm_sequence(x: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor) -> Tensor:
    """One LSTM layer over the rows of ``x`` as a single node; returns all
    hidden states (S, H). See ``lstm_forward`` for the layout and the cell.
    """
    xd, wxd, whd = x.data, w_x.data, w_h.data
    hs, cs, acts = lstm_forward(xd, wxd, whd, b.data)
    s, hidden = hs.shape
    need_x, need_wx, need_wh = x.requires_grad, w_x.requires_grad, w_h.requires_grad

    def vjp(g: Array) -> tuple:
        # d(activation)/d(pre-activation) for every step at once
        slope = acts * (1.0 - acts)
        slope[:, 3 * hidden :] = 1.0 - acts[:, 3 * hidden :] ** 2
        tanh_c = np.tanh(cs)
        dtanh = tanh_c * tanh_c  # then 1 - tanh(c)^2, in place
        np.subtract(1.0, dtanh, out=dtanh)
        dz = np.empty_like(acts)  # gradient w.r.t. the gate pre-activations
        gates = acts.reshape(s, 4, hidden)  # [t, k]: gate k of step t, i/f/o/g
        dgates = dz.reshape(s, 4, hidden)
        dgates[0, 1] = 0.0  # no c_{-1}: the zero state's forget-gate gradient
        dh = np.empty(hidden)
        dc = np.empty(hidden)
        dh_next = np.zeros(hidden)
        dc_next = np.zeros(hidden)
        wh_t = whd.T
        # The operations of ``lstm_backward_allocating`` (tests/oracles.py),
        # in its order, into reused buffers; its ``dc_next + dh * o * dtanh``
        # becomes ``dh * o * dtanh + dc_next``, which rounds the same
        for t in range(s - 1, -1, -1):
            i, f, o, gg = gates[t]
            np.add(g[t], dh_next, out=dh)
            np.multiply(dh, o, out=dc)
            dc *= dtanh[t]
            dc += dc_next
            np.multiply(dc, gg, out=dgates[t, 0])
            if t:
                np.multiply(dc, cs[t - 1], out=dgates[t, 1])
            np.multiply(dh, tanh_c[t], out=dgates[t, 2])
            np.multiply(dc, i, out=dgates[t, 3])
            dz[t] *= slope[t]
            np.multiply(dc, f, out=dc_next)
            if t:
                np.dot(dz[t], wh_t, out=dh_next)
        return (
            dz @ wxd.T if need_x else None,
            xd.T @ dz if need_wx else None,
            hs[:-1].T @ dz[1:] if need_wh else None,
            dz.sum(axis=0, keepdims=True),
        )

    return _node(hs, (x, w_x, w_h, b), vjp)


def conv2d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation over a (C_in, H, W) input with zero padding.

    ``w`` has shape (C_out, C_in, kh, kw) and ``b`` shape (C_out,). One
    im2col GEMM forward and per-tap GEMMs backward get the operands, in the
    memory layout, that ``np.tensordot`` forms, so the bytes are its bytes.
    """
    xd, wd, bd = x.data, w.data, b.data
    if xd.ndim != 3 or wd.ndim != 4 or bd.ndim != 1:
        raise ShapeError(
            f"conv2d: need input (C,H,W), kernel (O,C,kh,kw), bias (O,), "
            f"got {xd.shape}, {wd.shape}, {bd.shape}"
        )
    cin, h_in, w_in = xd.shape
    cout, cin_k, kh, kw = wd.shape
    if cin_k != cin or bd.shape[0] != cout:
        raise ShapeError(f"conv2d: channel mismatch input {xd.shape}, kernel {wd.shape}")
    if stride < 1 or padding < 0:
        raise ShapeError(f"conv2d: bad stride {stride} or padding {padding}")
    if padding:
        xp = np.zeros((cin, h_in + 2 * padding, w_in + 2 * padding))
        xp[:, padding:-padding, padding:-padding] = xd
    else:
        xp = xd
    hp, wp = xp.shape[1], xp.shape[2]
    h_out = (hp - kh) // stride + 1
    w_out = (wp - kw) // stride + 1
    if h_out < 1 or w_out < 1:
        raise ShapeError(f"conv2d: kernel {wd.shape} does not fit input {xd.shape}")
    n = h_out * w_out
    s0, s1, s2 = xp.strides
    windows = np.lib.stride_tricks.as_strided(  # tap-major: reshaped, the im2col matrix
        xp, (cin, kh, kw, h_out, w_out), (s0, s1, s2, s1 * stride, s2 * stride)
    )
    out = np.dot(wd.reshape(cout, -1), windows.reshape(-1, n)).reshape(cout, h_out, w_out)
    out += bd[:, None, None]

    need_x, need_w = x.requires_grad, w.requires_grad

    def vjp(g: Array) -> tuple:
        gb = g.sum(axis=(1, 2))
        g2 = g.reshape(cout, n)
        gw = np.empty_like(wd) if need_w else None
        gxp = np.zeros_like(xp) if need_x else None
        # [ky, kx] of these: the tap's (n, cin) window matrix, its (cin, cout) weights
        x_taps = windows.transpose(1, 2, 3, 4, 0).reshape(kh, kw, n, cin) if need_w else None
        w_taps = wd.transpose(2, 3, 1, 0)
        for ky in range(kh):
            for kx in range(kw):
                if need_w:
                    gw[:, :, ky, kx] = np.dot(g2, x_taps[ky, kx])
                if need_x:
                    gxp[
                        :, ky : ky + h_out * stride : stride, kx : kx + w_out * stride : stride
                    ] += np.dot(w_taps[ky, kx], g2).reshape(cin, h_out, w_out)
        if not need_x:
            return None, gw, gb
        gx = gxp[:, padding : padding + h_in, padding : padding + w_in] if padding else gxp
        return gx, gw, gb

    return _node(out, (x, w, b), vjp)


def maxpool2d(x: Tensor, window: int) -> Tensor:
    """Non-overlapping max pooling; spatial dims must be divisible by ``window``.

    Each output is the max of its window read in row-major order, and a tie
    keeps the earlier element, as ``argmax`` would; a NaN in a window makes
    its output NaN. The max is folded over the window² strided views of
    ``x``. The index of each max, which routes the gradient, is built only
    while a graph is being recorded, so under ``no_grad`` none is built.
    """
    xd = x.data
    if xd.ndim != 3:
        raise ShapeError(f"maxpool2d: need (C,H,W) input, got {xd.shape}")
    h, w = xd.shape[1:]
    if window < 1 or h % window or w % window:
        raise ShapeError(f"maxpool2d: window {window} does not tile input {xd.shape}")
    out = xd[:, ::window, ::window].copy()
    idx = np.zeros(out.shape, dtype=np.intp) if _grad_enabled and x.requires_grad else None
    for j in range(1, window * window):
        ky, kx = divmod(j, window)
        view = xd[:, ky::window, kx::window]
        if idx is not None:
            idx[view > out] = j
        # On a tie np.maximum returns its second operand, so ``out`` keeps
        # the earlier element; the two can differ only in the sign of a zero.
        np.maximum(view, out, out=out)

    def vjp(g: Array) -> tuple:
        gx = np.empty_like(xd)  # the views tile it
        for j in range(window * window):
            ky, kx = divmod(j, window)
            gx[:, ky::window, kx::window] = np.where(idx == j, g, 0.0)
        return (gx,)

    return _node(out, (x,), vjp)


def _logistic(v: Array) -> Array:
    return 0.5 * (np.tanh(0.5 * v) + 1.0)  # overflow-free


def sigmoid(x: Tensor) -> Tensor:
    y = _logistic(x.data)
    return _node(y, (x,), lambda g: (g * y * (1.0 - y),))


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    return _node(y, (x,), lambda g: (g * (1.0 - y * y),))


def relu(x: Tensor) -> Tensor:
    xd = x.data
    return _node(np.maximum(xd, 0.0), (x,), lambda g: (g * (xd > 0.0),))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    orig = x.data.shape
    shape = tuple(shape)
    if math.prod(shape) != x.data.size:
        raise ShapeError(f"reshape: cannot view {orig} as {shape}")
    return _node(x.data.reshape(shape), (x,), lambda g: (g.reshape(orig),))


def slice_along(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    xd = x.data
    if not 0 <= axis < xd.ndim:
        raise ShapeError(f"slice: axis {axis} out of range for shape {xd.shape}")
    if not 0 <= start < stop <= xd.shape[axis]:
        raise ShapeError(f"slice: [{start}:{stop}] invalid for shape {xd.shape} axis {axis}")
    key = tuple(slice(start, stop) if d == axis else slice(None) for d in range(xd.ndim))

    def vjp(g: Array) -> tuple:
        gx = np.zeros_like(xd)
        gx[key] = g
        return (gx,)

    return _node(xd[key], (x,), vjp)


def sum_all(x: Tensor) -> Tensor:
    xd = x.data
    return _node(np.asarray(xd.sum()), (x,), lambda g: (np.full_like(xd, float(g)),))


def l2norm(x: Tensor) -> Tensor:
    """Euclidean norm of all elements; subgradient at 0 is defined as 0."""
    xd = x.data
    n = math.sqrt(float((xd * xd).sum()))

    def vjp(g: Array) -> tuple:
        if n == 0.0:
            return (np.zeros_like(xd),)
        return (float(g) / n * xd,)

    return _node(np.asarray(n), (x,), vjp)


def dropout(x: Tensor, rate: float, seed: int) -> Tensor:
    """Inverted dropout: zero elements with probability ``rate`` and scale
    survivors by 1/(1-rate). At rate 0 it returns ``x`` itself.

    The mask is a pure function of (shape, rate, seed).
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return x
    mask = (np.random.default_rng(seed).random(x.data.shape) >= rate) / (1.0 - rate)
    return _node(x.data * mask, (x,), lambda g: (g * mask,))


def backward(output: Tensor, params: Sequence[Tensor]) -> dict[Tensor, Array | Outer]:
    """Reverse-mode gradients of a scalar output with respect to ``params``.

    Returns a map from each of ``params`` to its gradient, with zeros for a
    tensor the graph does not reach. A gradient is an ndarray, or an
    ``Outer`` for a leaf whose only contribution is the weight gradient of
    a single-row matmul (``np.asarray`` densifies it). Contributions are
    summed out of place in the order they arrive, so a tensor reached more
    than once gets a dense sum and no vjp's output is ever mutated.
    Returned gradients may share memory with graph internals; treat them
    as read-only.
    """
    if output.data.shape not in ((), (1,)):
        raise ShapeError(f"backward needs a scalar output, got shape {output.data.shape}")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(output, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    grads: dict[int, Array | Outer] = {id(output): np.ones_like(output.data)}
    for node in reversed(topo):
        if node._vjp is None:
            continue  # leaf: keep its accumulated gradient
        g = grads.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            acc = grads.get(pid)
            # np.add, not +: it densifies an Outer on either side
            grads[pid] = pg if acc is None else np.add(acc, pg)

    return {p: grads[id(p)] if id(p) in grads else np.zeros_like(p.data) for p in params}


def grad_check(
    f: Callable[[Sequence[Tensor]], Tensor], params: Sequence[Tensor], eps: float = 1e-4
) -> float:
    """Worst relative error between backward and central finite differences.

    Relative error per coordinate is |a - n| / max(1e-8, |a| + |n|).
    ``f`` must be a deterministic scalar function of ``params``.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    analytic = backward(f(params), params=list(params))
    worst = 0.0
    for p in params:
        a_flat = np.asarray(analytic[p]).reshape(-1)
        data = p.data.reshape(-1)
        for i in range(data.size):
            orig = data[i]
            data[i] = orig + eps
            with no_grad():
                f_plus = float(f(params).data)
            data[i] = orig - eps
            with no_grad():
                f_minus = float(f(params).data)
            data[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(float(a_flat[i]) - numeric) / max(1e-8, abs(float(a_flat[i])) + abs(numeric))
            worst = max(worst, rel)
    return worst


@dataclass
class OptState:
    """Momentum-SGD state; velocity arrays mirror parameter shapes."""

    lr: float
    momentum: float
    weight_decay: float
    velocity: list[Array]


def make_opt_state(
    params: Sequence[Tensor], lr: float, momentum: float, weight_decay: float
) -> OptState:
    return OptState(lr, momentum, weight_decay, [np.zeros_like(p.data) for p in params])


def sgd_step(
    params: Sequence[Tensor], grads: Mapping[Tensor, Array | Outer], state: OptState
) -> None:
    """Classical momentum update of ``params`` and ``state.velocity``, in
    place; returns nothing:

    g' = g + weight_decay * theta;  v = momentum * v + g';  theta -= lr * v

    The update runs over flat views of each parameter and velocity, so both
    must be C-contiguous. A dense gradient is applied as one block. An
    ``Outer`` gradient is never densified whole: ``Outer.blocks`` multiplies
    it out about 256 KB of rows at a time, and each block goes through the
    same per-element operations, in the same order, as a dense gradient:
    so the product is filled, then scaled, never formed by ``dot``,
    ``einsum`` or ``dger`` (see ``Outer.blocks``). The weight decay and the
    parameter step stay on scipy's BLAS ``daxpy``, imported by the first
    call, which rounds ``y + a * x`` as one fused multiply-add. Every
    gradient, parameter and velocity is checked first, so a ShapeError or
    NumericError leaves all of them untouched.
    """
    gs = [grads[p] for p in params]
    for p, g, v in zip(params, gs, state.velocity):
        if g.shape != p.data.shape:
            raise ShapeError(f"sgd_step: gradient shape {g.shape} vs parameter {p.data.shape}")
        if v.shape != p.data.shape or not (p.data.flags.c_contiguous and v.flags.c_contiguous):
            raise ShapeError(
                f"sgd_step: parameter {p.data.shape} and velocity {v.shape} must be "
                "C-contiguous arrays of one shape"
            )
        if isinstance(g, Outer):
            # |fl(u_i v_j)| <= fl(max|u| max|v|), and a NaN or an inf * 0 in
            # the product shows as a NaN here
            finite = math.isfinite(float(np.abs(g.u).max()) * float(np.abs(g.v).max()))
        else:
            # cheap gate: a finite sum implies all elements finite
            finite = np.isfinite(g.sum()) or np.isfinite(g).all()
        if not finite:
            raise NumericError("non-finite gradient; optimizer step aborted")
    # imported here, its only use: loading scipy.linalg costs about 27 MB of
    # resident memory and 0.3 s, which inference and ingestion never need
    from scipy.linalg.blas import daxpy as blas_daxpy

    lr, momentum, weight_decay = state.lr, state.momentum, state.weight_decay
    for p, g, v in zip(params, gs, state.velocity):
        theta, vel = p.data.reshape(-1), v.reshape(-1)  # views, as both are C-contiguous
        if isinstance(g, Outer):
            width = g.shape[1]
            blocks = (
                (slice(rows.start * width, rows.stop * width), block.reshape(-1))
                for rows, block in g.blocks()
            )
        else:
            blocks = [(slice(None), g.reshape(-1))]
        for span, block in blocks:
            t, w = theta[span], vel[span]
            w *= momentum
            w += block
            if weight_decay != 0.0:
                blas_daxpy(t, w, a=weight_decay)
            blas_daxpy(w, t, a=-lr)
