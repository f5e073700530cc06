"""Independent reference implementations used to check the library.

These deliberately avoid the library's own code paths: explicit loops
instead of vectorized kernels, rotation matrices instead of quaternion
algebra. ``train_accumulating`` is the exception: it checks only the
training loop, so it reuses the library's forward, backward and SGD step.
``conv2d_tensordot``, ``maxpool_argmax``, ``lstm_forward_allocating``,
``lstm_backward_allocating``, ``cnn_forward_relu_then_pool``,
``edge_frame_segments``, ``interval_events``, ``format_events_lines`` and
``parse_poses_lines`` are the library's own earlier kernels, kept to show
that their rewrites give the same bytes.
"""

import math
import warnings

import numpy as np

from evpose import autodiff as ad
from evpose import model as m
from evpose.errors import BoundsError, InvalidRotationError, OrderingError, ParseError
from evpose.event_image import image_from_window
from evpose.events import EVENT_DTYPE, PoseLabel, canonicalize_quaternion
from evpose.pipeline import Checkpoint


def lstm_step_scalar(x, h, c, layer):
    """LSTM cell with explicit index loops, no matrix library.

    ``layer`` is the fused (w_x (in, 4H), w_h (H, 4H), b (1, 4H)) triple of
    arrays; gate k reads columns k*H .. k*H + H-1, in i, f, o, g order.
    """
    w_x, w_h, b = (np.asarray(a).tolist() for a in layer)
    n = len(h)

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    def gate(k, act):
        out = []
        for j in range(n):
            col = k * n + j
            acc = b[0][col]
            for r in range(len(x)):
                acc += x[r] * w_x[r][col]
            for r in range(n):
                acc += h[r] * w_h[r][col]
            out.append(act(acc))
        return out

    i, f, o, g = gate(0, sig), gate(1, sig), gate(2, sig), gate(3, math.tanh)
    c_new = [f[j] * c[j] + i[j] * g[j] for j in range(n)]
    h_new = [o[j] * math.tanh(c_new[j]) for j in range(n)]
    return h_new, c_new


def lstm_sequence_scalar(xs, layer):
    """Iterate ``lstm_step_scalar`` over the rows of ``xs`` from a zero
    state; returns the lists of every h and every c."""
    n = len(np.asarray(layer[1]))
    h, c = [0.0] * n, [0.0] * n
    hs, cs = [], []
    for x in np.asarray(xs).tolist():
        h, c = lstm_step_scalar(x, h, c, layer)
        hs.append(h)
        cs.append(c)
    return hs, cs


def parse_events_lines(text, sensor_w, sensor_h):
    """The per-line events parser: a list of (t, x, y, rho) tuples, the
    error of the first bad line, and a warning for non-monotone timestamps."""
    events = []
    non_monotone = 0
    prev_t = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"expected 't x y p', got {line!r}", line_no)
        try:
            t = float(parts[0])
            x = int(parts[1])
            y = int(parts[2])
            p = int(parts[3])
        except ValueError:
            raise ParseError(f"could not parse fields in {line!r}", line_no) from None
        if not math.isfinite(t) or t < 0.0:
            raise ParseError(f"bad timestamp {parts[0]!r}", line_no)
        if p not in (0, 1):
            raise ParseError(f"polarity must be 0 or 1, got {parts[3]!r}", line_no)
        if not (0 <= x < sensor_w and 0 <= y < sensor_h):
            raise BoundsError(
                f"line {line_no}: event at ({x}, {y}) outside {sensor_w}x{sensor_h} sensor"
            )
        if prev_t is not None and t < prev_t:
            non_monotone += 1
        prev_t = t
        events.append((t, x, y, 1 if p == 1 else -1))
    if non_monotone:
        warnings.warn(f"{non_monotone} event(s) with non-monotone timestamps", stacklevel=2)
    return events


def parse_poses_lines(text):
    """The per-line groundtruth parser: a list of PoseLabels with
    canonicalized quaternions, or the error of the first bad line. This is
    the library's earlier ``parse_poses``."""
    poses = []
    prev_t = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 8:
            raise ParseError(f"expected 't px py pz qx qy qz qw', got {line!r}", line_no)
        try:
            vals = [float(v) for v in parts]
        except ValueError:
            raise ParseError(f"could not parse fields in {line!r}", line_no) from None
        t = vals[0]
        if not math.isfinite(t):
            raise ParseError(f"bad timestamp {parts[0]!r}", line_no)
        if prev_t is not None and t <= prev_t:
            raise OrderingError(f"line {line_no}: timestamp {t!r} not after {prev_t!r}")
        prev_t = t
        if not all(math.isfinite(v) for v in vals[1:4]):
            raise ParseError(f"non-finite position in {line!r}", line_no)
        try:
            q = canonicalize_quaternion(vals[4:8])
        except InvalidRotationError as exc:
            raise InvalidRotationError(f"line {line_no}: {exc}") from None
        poses.append(PoseLabel(t, np.array(vals[1:4], dtype=np.float64), q))
    return poses


def format_events_lines(events):
    """The events text built one f-string per line: ``repr(t) x y p``, with
    p 1 for rho > 0 and 0 otherwise. This is the library's earlier
    ``format_events``."""
    columns = (
        events["t"].tolist(),
        events["x"].tolist(),
        events["y"].tolist(),
        (events["rho"] > 0).astype(np.int8).tolist(),
    )
    return "".join(f"{t!r} {x} {y} {p}\n" for t, x, y, p in zip(*columns))


def latest_event_image(events, h, w):
    """Per pixel, scan all events for the latest one hitting it."""
    rows = list(zip(events["x"].tolist(), events["y"].tolist(), events["rho"].tolist()))
    img = np.full((h, w), 0.5)
    for y in range(h):
        for x in range(w):
            latest = None
            for ex, ey, rho in rows:
                if ex == x and ey == y:
                    latest = rho
            if latest is not None:
                img[y, x] = 1.0 if latest > 0 else 0.0
    return img


def quat_to_matrix(q):
    x, y, z, w = (float(v) for v in q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_angle_deg(q1, q2):
    """Angle of the relative rotation, recovered from rotation matrices."""
    r_rel = quat_to_matrix(q1).T @ quat_to_matrix(q2)
    cos_theta = (np.trace(r_rel) - 1.0) / 2.0
    return math.degrees(math.acos(min(1.0, max(-1.0, cos_theta))))


def _clip_2d(x0, y0, x1, y1, xmax, ymax):
    """Liang-Barsky clip of a segment to [0, xmax] x [0, ymax]; None if outside."""
    dx, dy = x1 - x0, y1 - y0
    t0, t1 = 0.0, 1.0
    for p, q in (
        (-dx, x0 - 0.0),
        (dx, xmax - x0),
        (-dy, y0 - 0.0),
        (dy, ymax - y0),
    ):
        if p == 0.0:
            if q < 0.0:
                return None
        else:
            r = q / p
            if p < 0.0:
                if r > t1:
                    return None
                t0 = max(t0, r)
            else:
                if r < t0:
                    return None
                t1 = min(t1, r)
    return (x0 + t0 * dx, y0 + t0 * dy, x0 + t1 * dx, y0 + t1 * dy)


def _draw_line(mask, x0, y0, x1, y1):
    """Bresenham line; pixels outside the mask are ignored."""
    h, w = mask.shape
    dx, dy = abs(x1 - x0), -abs(y1 - y0)
    sx = 1 if x0 < x1 else -1
    sy = 1 if y0 < y1 else -1
    err = dx + dy
    x, y = x0, y0
    while True:
        if 0 <= x < w and 0 <= y < h:
            mask[y, x] = True
        if x == x1 and y == y1:
            return
        e2 = 2 * err
        if e2 >= dy:
            err += dy
            x += sx
        if e2 <= dx:
            err += dx
            y += sy


def edge_frame_segments(config, p, rot_world_from_cam, z_near=1e-3):
    """Edge mask of a ``synth.SceneConfig`` wireframe drawn one segment at a
    time: project, cut at the near plane, clip and draw each in turn. This is
    the library's earlier per-segment renderer."""
    rot_cam_from_world = rot_world_from_cam.T
    cx = (config.sensor_w - 1) / 2.0
    cy = (config.sensor_h - 1) / 2.0
    mask = np.zeros((config.sensor_h, config.sensor_w), dtype=bool)
    for a, b in config.segments:
        pa = rot_cam_from_world @ (np.asarray(a, dtype=np.float64) - p)
        pb = rot_cam_from_world @ (np.asarray(b, dtype=np.float64) - p)
        za, zb = pa[2], pb[2]
        if za < z_near and zb < z_near:
            continue
        if za < z_near or zb < z_near:
            s = (z_near - za) / (zb - za)
            crossing = pa + s * (pb - pa)
            if za < z_near:
                pa = crossing
            else:
                pb = crossing
        ua = (config.focal * pa[0] / pa[2] + cx, config.focal * pa[1] / pa[2] + cy)
        ub = (config.focal * pb[0] / pb[2] + cx, config.focal * pb[1] / pb[2] + cy)
        clipped = _clip_2d(
            ua[0], ua[1], ub[0], ub[1], config.sensor_w - 1.0, config.sensor_h - 1.0
        )
        if clipped is None:
            continue
        x0, y0, x1, y1 = clipped
        _draw_line(mask, round(x0), round(y0), round(x1), round(y1))
    return mask


def interval_events(masks, rate_hz, seed):
    """``synth.generate_dataset``'s events from its edge masks, one interval
    at a time: each pixel that toggles between masks i - 1 and i emits an
    event at times[i] minus a uniform draw of up to one sample period, and
    each interval's events are sorted stably by time. This is the library's
    earlier per-interval loop."""
    dt = 1.0 / rate_hz
    times = [i * dt for i in range(len(masks))]
    rng = np.random.default_rng(seed)
    chunks = [np.empty(0, EVENT_DTYPE)]
    for i in range(1, len(masks)):
        ys, xs = np.nonzero(masks[i] != masks[i - 1])
        if ys.size == 0:
            continue
        interval = np.empty(ys.size, EVENT_DTYPE)
        interval["t"] = times[i] - rng.random(ys.size) * dt
        interval["x"], interval["y"] = xs, ys
        interval["rho"] = np.where(masks[i][ys, xs], 1, -1)
        chunks.append(interval[np.argsort(interval["t"], kind="stable")])
    return np.concatenate(chunks)


def conv2d_loops(x, w, b, stride, padding):
    """Brute-force convolution with explicit index loops."""
    cin, h, win = x.shape
    cout, _, kh, kw = w.shape
    xp = np.zeros((cin, h + 2 * padding, win + 2 * padding))
    xp[:, padding : padding + h, padding : padding + win] = x
    ho = (xp.shape[1] - kh) // stride + 1
    wo = (xp.shape[2] - kw) // stride + 1
    out = np.zeros((cout, ho, wo))
    for co in range(cout):
        for oy in range(ho):
            for ox in range(wo):
                acc = 0.0
                for ci in range(cin):
                    for ky in range(kh):
                        for kx in range(kw):
                            acc += w[co, ci, ky, kx] * xp[ci, oy * stride + ky, ox * stride + kx]
                out[co, oy, ox] = acc + b[co]
    return out


def conv2d_tensordot(x, w, b, stride, padding, g):
    """The earlier ``autodiff.conv2d`` and its vjp, built on ``np.tensordot``,
    kept as a byte-equality reference. Returns (out, gx, gw, gb) for the
    output gradient ``g``."""
    cin, h_in, w_in = x.shape
    cout, _, kh, kw = w.shape
    xp = x
    if padding:
        xp = np.zeros((cin, h_in + 2 * padding, w_in + 2 * padding))
        xp[:, padding:-padding, padding:-padding] = x
    h_out = (xp.shape[1] - kh) // stride + 1
    w_out = (xp.shape[2] - kw) // stride + 1
    s0, s1, s2 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, (cin, h_out, w_out, kh, kw), (s0, s1 * stride, s2 * stride, s1, s2)
    )
    out = np.tensordot(w, windows, axes=((1, 2, 3), (0, 3, 4)))
    out += b[:, None, None]
    gw = np.empty_like(w)
    gxp = np.zeros_like(xp)
    for ky in range(kh):
        for kx in range(kw):
            taps = (slice(None), slice(ky, ky + h_out * stride, stride),
                    slice(kx, kx + w_out * stride, stride))
            gw[:, :, ky, kx] = np.tensordot(g, xp[taps], axes=((1, 2), (1, 2)))
            gxp[taps] += np.tensordot(w[:, :, ky, kx], g, axes=(0, 0))
    gx = gxp[:, padding : padding + h_in, padding : padding + w_in]
    return out, gx, gw, g.sum(axis=(1, 2))


def maxpool_loops(x, window, g):
    """Max pooling and its vjp with explicit index loops. Each output takes
    the first max of its window in row-major order (a NaN counts as the
    max), and the vjp routes that output's ``g`` to it. Returns (out, gx)."""
    c, h, w = x.shape
    out = np.empty((c, h // window, w // window))
    gx = np.zeros_like(x)
    for ch in range(c):
        for oy in range(h // window):
            for ox in range(w // window):
                best = None
                for ky in range(window):
                    for kx in range(window):
                        at = (ch, oy * window + ky, ox * window + kx)
                        v = x[at]
                        if best is None or v > x[best] or (math.isnan(v) and not math.isnan(x[best])):
                            best = at
                out[ch, oy, ox] = x[best]
                gx[best] = g[ch, oy, ox]
    return out, gx


def maxpool_argmax(x, window, g):
    """The earlier vectorized pool and its vjp, kept as a byte-equality
    reference: gather each window into a last axis, ``argmax`` it, and
    scatter ``g`` back through the same layout. Returns (out, gx)."""
    c, h, w = x.shape
    ho, wo = h // window, w // window
    patches = (
        x.reshape(c, ho, window, wo, window)
        .transpose(0, 1, 3, 2, 4)
        .reshape(c, ho, wo, window * window)
    )
    idx = patches.argmax(axis=3)
    out = np.take_along_axis(patches, idx[..., None], axis=3)[..., 0]
    gp = np.zeros((c, ho, wo, window * window))
    np.put_along_axis(gp, idx[..., None], g[..., None], axis=3)
    gx = gp.reshape(c, ho, wo, window, window).transpose(0, 1, 3, 2, 4).reshape(c, h, w)
    return out, gx


def lstm_forward_allocating(x, w_x, w_h, b):
    """The earlier ``autodiff.lstm_forward`` loop, which allocates a new
    array for every gate activation and state, kept as a byte-equality
    reference. Returns (hs, cs, acts) as that function does."""
    s, hidden = x.shape[0], w_h.shape[0]
    acts = x @ w_x
    acts += b
    cs = np.empty((s, hidden))
    hs = np.empty((s, hidden))
    c = np.zeros(hidden)
    for t in range(s):
        a = acts[t]
        if t:
            a += hs[t - 1] @ w_h
        a[: 3 * hidden] = 0.5 * (np.tanh(0.5 * a[: 3 * hidden]) + 1.0)
        a[3 * hidden :] = np.tanh(a[3 * hidden :])
        i, f, o, g = a[:hidden], a[hidden : 2 * hidden], a[2 * hidden : 3 * hidden], a[3 * hidden :]
        c = f * c + i * g
        cs[t] = c
        hs[t] = o * np.tanh(c)
    return hs, cs, acts


def lstm_backward_allocating(x, w_x, w_h, hs, cs, acts, g):
    """The earlier ``autodiff.lstm_sequence`` vjp, which allocates a new
    array for every gate gradient and state gradient, kept as a byte-equality
    reference. Takes the layer's inputs, ``lstm_forward``'s (hs, cs, acts)
    and the output gradient ``g`` (S, H); returns (dx, dw_x, dw_h, db)."""
    s, hidden = hs.shape
    slope = acts * (1.0 - acts)
    slope[:, 3 * hidden :] = 1.0 - acts[:, 3 * hidden :] ** 2
    tanh_c = np.tanh(cs)
    dz = np.empty_like(acts)
    dh_next = np.zeros(hidden)
    dc_next = np.zeros(hidden)
    for t in range(s - 1, -1, -1):
        i, f, o, gg = (acts[t, k * hidden : (k + 1) * hidden] for k in range(4))
        dh = g[t] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c[t] * tanh_c[t])
        dz[t, :hidden] = dc * gg
        dz[t, hidden : 2 * hidden] = dc * cs[t - 1] if t else 0.0
        dz[t, 2 * hidden : 3 * hidden] = dh * tanh_c[t]
        dz[t, 3 * hidden :] = dc * i
        dz[t] *= slope[t]
        dc_next = dc * f
        if t:
            dh_next = dz[t] @ w_h.T
    return dz @ w_x.T, x.T @ dz, hs[:-1].T @ dz[1:], dz.sum(axis=0, keepdims=True)


def cnn_forward_relu_then_pool(image, params, training=False, rng_seed=None):
    """The earlier ``model.cnn_forward``, which applies ReLU before max
    pooling, kept as a byte-equality reference for the pool-then-ReLU order."""
    cfg = params.config
    t = ad.tensor(image.pixels.reshape(1, cfg.input_h, cfg.input_w))
    for i, (_cout, kernel, stride, pool) in enumerate(cfg.conv_blocks):
        t = ad.conv2d(t, params.tensors[f"conv{i}.w"], params.tensors[f"conv{i}.b"], stride, kernel // 2)
        t = ad.relu(t)
        if pool > 1:
            t = ad.maxpool2d(t, pool)
    t = ad.reshape(t, (1, t.data.size))
    t = ad.add(ad.matmul(t, params.tensors["feat.w"]), params.tensors["feat.b"])
    return ad.dropout(t, cfg.dropout_rate, training=training, seed=rng_seed)


def train_accumulating(config, windows):
    """Minibatch training as a running sum: each sample's gradient is added
    into dense accumulators, which one ``sgd_step`` applies (divided by the
    count) when ``batch_size`` samples are in or the epoch ends. It draws
    from the seeded generator in ``pipeline.train``'s order: one permutation
    per epoch, then one dropout seed per sample."""
    cfg = config.model
    params = m.init_params(cfg, seed=config.seed)
    tensors = params.ordered()
    opt = ad.make_opt_state(tensors, config.lr, config.momentum, config.weight_decay)
    rng = np.random.default_rng(config.seed)
    images = [image_from_window(w, cfg.input_h, cfg.input_w) for w in windows]
    acc, count = None, 0

    def flush():
        nonlocal acc, count
        if count > 1:
            for g in acc.values():
                g /= count
        if count:
            ad.sgd_step(tensors, acc, opt)
        acc, count = None, 0

    history = []
    for _ in range(config.epochs):
        order = rng.permutation(len(windows))
        total = 0.0
        for idx in order.tolist():
            drop_seed = int(rng.integers(0, 2**63))
            out = m.forward(images[idx], params, training=True, rng_seed=drop_seed)
            loss = m.pose_loss(out, windows[idx].label)
            total += float(loss.data)
            grads = ad.backward(loss, params=tensors)
            if acc is None:
                acc = {t: np.array(grads[t]) for t in tensors}
            else:
                for t in tensors:
                    acc[t] += grads[t]
            count += 1
            if count == config.batch_size:
                flush()
        flush()
        history.append(total / len(order))
    return Checkpoint(params, opt, config.epochs, history)
