import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpose import autodiff as ad
from evpose.errors import NumericError, ShapeError
from oracles import conv2d_loops as conv2d_loop_oracle
from oracles import conv2d_tensordot
from oracles import lstm_backward_allocating, lstm_forward_allocating, maxpool_argmax, maxpool_loops


def fd_gradients(f, params, eps=1e-6):
    """Central finite differences of a scalar function, coordinate by coordinate."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(params).data)
            flat[i] = orig - eps
            f_minus = float(f(params).data)
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2 * eps)
        grads.append(g)
    return grads


def assert_pool_bytes_equal(x, window, reference):
    """maxpool2d and its vjp give the same bytes as ``reference``."""
    c, h, w = x.shape
    g = np.random.default_rng(x.size).standard_normal((c, h // window, w // window))
    out = ad.maxpool2d(ad.parameter(x), window)
    for got, want in zip((out.data, out._vjp(g)[0]), reference(x, window, g)):
        assert got.tobytes() == want.tobytes()


def _t(*shape):
    """A tensor of ones with the given shape."""
    return ad.tensor(np.ones(shape))


def assert_conv_bytes_equal(x, w, b, stride, padding):
    """conv2d and its vjp give the bytes of the earlier tensordot convolution."""
    out = ad.conv2d(ad.parameter(x), ad.parameter(w), ad.parameter(b), stride, padding)
    g = np.random.default_rng(out.data.size).standard_normal(out.data.shape)
    for got, want in zip((out.data, *out._vjp(g)), conv2d_tensordot(x, w, b, stride, padding, g)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def assert_backward_matches_fd(f, params, rtol=1e-6, eps=1e-6):
    analytic = ad.backward(f(params), params=list(params))
    numeric = fd_gradients(f, params, eps=eps)
    for p, num in zip(params, numeric):
        ana = analytic[p]
        denom = np.maximum(np.abs(ana) + np.abs(num), 1e-4)
        assert np.all(np.abs(ana - num) / denom < rtol), f"mismatch:\n{ana}\n{num}"


class TestForwardValues:
    def test_matmul_hand_example(self):
        out = ad.matmul(ad.tensor([[1.0, 2.0], [3.0, 4.0]]), ad.tensor([[1.0], [1.0]]))
        assert out.data.tolist() == [[3.0], [7.0]]

    def test_sigmoid_tanh_at_origin(self):
        zero = ad.tensor(np.zeros(3))
        assert np.all(ad.sigmoid(zero).data == 0.5)
        assert np.all(ad.tanh(zero).data == 0.0)

    def test_dropout_training_zeroes_and_scales(self):
        x = ad.tensor(np.ones(1000))
        y = ad.dropout(x, 0.25, seed=0).data
        assert set(np.unique(y)) == {0.0, 1.0 / 0.75}
        # drop probability close to the rate
        assert abs(np.mean(y == 0.0) - 0.25) < 0.05

    def test_dropout_mask_reproducible(self):
        x = ad.tensor(np.ones((7, 5)))
        a = ad.dropout(x, 0.5, seed=123).data
        b = ad.dropout(x, 0.5, seed=123).data
        c = ad.dropout(x, 0.5, seed=124).data
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dropout_rate_zero_returns_input(self):
        x = ad.tensor(np.arange(12.0).reshape(3, 4))
        assert ad.dropout(x, 0.0, seed=5) is x

    def test_dropout_bad_rate(self):
        x = ad.tensor(np.ones(3))
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                ad.dropout(x, rate, seed=0)

    def test_shape_errors_name_kind_and_shapes(self):
        a = ad.tensor(np.ones((2, 3)))
        b = ad.tensor(np.ones((3, 2)))
        with pytest.raises(ShapeError, match="add.*2, 3"):
            ad.add(a, b)
        with pytest.raises(ShapeError, match="matmul"):
            ad.matmul(a, a)

    @pytest.mark.parametrize(
        "op, message",
        [
            (lambda: ad.conv2d(_t(2, 5, 5), _t(3, 2, 3), _t(3)), r"conv2d: need input \(C,H,W\), kernel \(O,C,kh,kw\)"),
            (lambda: ad.conv2d(_t(5, 5), _t(3, 2, 3, 3), _t(3)), r"conv2d: need input .* got \(5, 5\)"),
            (lambda: ad.conv2d(_t(2, 5, 5), _t(3, 2, 3, 3), _t(3, 1)), r"conv2d: need input .* \(3, 1\)$"),
            (lambda: ad.conv2d(_t(2, 5, 5), _t(3, 4, 3, 3), _t(3)), r"conv2d: channel mismatch input \(2, 5, 5\)"),
            (lambda: ad.conv2d(_t(2, 5, 5), _t(3, 2, 3, 3), _t(4)), r"conv2d: channel mismatch"),
            (lambda: ad.conv2d(_t(2, 5, 5), _t(3, 2, 3, 3), _t(3), stride=0), r"conv2d: bad stride 0 or padding 0"),
            (lambda: ad.conv2d(_t(2, 5, 5), _t(3, 2, 3, 3), _t(3), padding=-1), r"conv2d: bad stride 1 or padding -1"),
            (lambda: ad.conv2d(_t(2, 5, 5), _t(3, 2, 6, 3), _t(3)), r"conv2d: kernel \(3, 2, 6, 3\) does not fit input"),
            (lambda: ad.conv2d(_t(2, 5, 5), _t(3, 2, 3, 8), _t(3), padding=1), r"conv2d: kernel .* does not fit"),
            (lambda: ad.maxpool2d(_t(4, 4), 2), r"maxpool2d: need \(C,H,W\) input, got \(4, 4\)"),
            (lambda: ad.maxpool2d(_t(1, 6, 4), 3), r"maxpool2d: window 3 does not tile input \(1, 6, 4\)"),
            (lambda: ad.maxpool2d(_t(1, 4, 4), 0), r"maxpool2d: window 0 does not tile"),
            (lambda: ad.reshape(_t(2, 3), (4, 2)), r"reshape: cannot view \(2, 3\) as \(4, 2\)"),
            (lambda: ad.slice_along(_t(2, 3), 2, 0, 1), r"slice: axis 2 out of range for shape \(2, 3\)"),
            (lambda: ad.slice_along(_t(2, 3), -1, 0, 1), r"slice: axis -1 out of range"),
            (lambda: ad.slice_along(_t(2, 3), 1, 2, 2), r"slice: \[2:2\] invalid for shape \(2, 3\) axis 1"),
            (lambda: ad.slice_along(_t(2, 3), 1, 1, 4), r"slice: \[1:4\] invalid"),
            (lambda: ad.slice_along(_t(2, 3), 0, -1, 1), r"slice: \[-1:1\] invalid"),
        ],
        ids=["conv-kernel-rank", "conv-input-rank", "conv-bias-rank", "conv-kernel-channels", "conv-bias-channels",
             "conv-stride-0", "conv-padding-negative", "conv-kernel-too-tall", "conv-kernel-too-wide-padded",
             "pool-rank", "pool-window-does-not-tile", "pool-window-0", "reshape-size", "slice-axis-past-rank",
             "slice-axis-negative", "slice-empty-range", "slice-stop-past-end", "slice-negative-start"],
    )
    def test_op_input_checks(self, op, message):
        with pytest.raises(ShapeError, match=message):
            op()

    def test_conv2d_matches_loop_oracle_exactly_on_integers(self):
        # integer-valued inputs make float sums exact regardless of order
        rng = np.random.default_rng(0)
        for stride, padding in ((1, 0), (1, 1), (2, 1), (2, 0)):
            x = rng.integers(-3, 4, size=(2, 5, 5)).astype(float)
            w = rng.integers(-3, 4, size=(3, 2, 3, 3)).astype(float)
            b = rng.integers(-3, 4, size=3).astype(float)
            out = ad.conv2d(ad.tensor(x), ad.tensor(w), ad.tensor(b), stride, padding)
            oracle = conv2d_loop_oracle(x, w, b, stride, padding)
            assert np.array_equal(out.data, oracle)

    def test_conv2d_close_to_loop_oracle_on_floats(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 5, 5))
        w = rng.standard_normal((4, 2, 3, 3))
        b = rng.standard_normal(4)
        out = ad.conv2d(ad.tensor(x), ad.tensor(w), ad.tensor(b), 1, 1)
        assert np.allclose(out.data, conv2d_loop_oracle(x, w, b, 1, 1), atol=1e-12)

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_conv2d_matches_earlier_tensordot_conv_bytes(self, data):
        kernel = data.draw(st.sampled_from([1, 2, 3, 5]), label="kernel")
        cin = data.draw(st.integers(1, 8), label="cin")
        cout = data.draw(st.integers(1, 16), label="cout")
        stride = data.draw(st.integers(1, 2), label="stride")
        padding = data.draw(st.integers(0, kernel - 1), label="padding")
        h, w = data.draw(st.integers(kernel, 40), label="h"), data.draw(st.integers(kernel, 40), label="w")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        x, wt, b = (rng.standard_normal(s) for s in ((cin, h, w), (cout, cin, kernel, kernel), cout))
        assert_conv_bytes_equal(x, wt, b, stride, padding)

    # A C-ordered copy of a tap's weight block, where tensordot passes a view,
    # changed gx for cin = 1 and for 1x1 kernels; so did one GEMM over all taps.
    @pytest.mark.parametrize(
        "cin, cout, kernel, stride, padding, size",
        [(1, 8, 3, 1, 1, 64), (8, 16, 3, 1, 1, 32), (1, 1, 1, 1, 0, 1), (1, 5, 2, 2, 1, 9),
         (1, 16, 5, 1, 4, 17), (1, 3, 1, 2, 0, 40), (4, 7, 1, 1, 0, 23), (8, 16, 1, 2, 0, 12)],
    )
    def test_conv2d_matches_earlier_tensordot_conv_bytes_for_one_channel_or_1x1(
        self, cin, cout, kernel, stride, padding, size
    ):
        rng = np.random.default_rng(size)
        x, wt, b = (rng.standard_normal(s) for s in ((cin, size, size), (cout, cin, kernel, kernel), cout))
        assert_conv_bytes_equal(x, wt, b, stride, padding)

    def test_maxpool_values(self):
        x = ad.tensor(np.arange(16.0).reshape(1, 4, 4))
        out = ad.maxpool2d(x, 2)
        assert out.data.tolist() == [[[5.0, 7.0], [13.0, 15.0]]]

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_maxpool_matches_loop_oracle_bytes(self, channels, window):
        # ReLU'd small integers: most windows hold tied maxima, many of them zeros
        rng = np.random.default_rng(10 * channels + window)
        x = ad.relu(ad.tensor(rng.integers(-3, 4, size=(channels, 6, 6)).astype(float))).data
        assert_pool_bytes_equal(x, window, maxpool_loops)

    def test_maxpool_keeps_the_first_of_tied_signed_zeros(self):
        # -0.0 == 0.0, so only the tie rule decides which sign comes out
        rng = np.random.default_rng(12)
        x = np.where(rng.random((2, 6, 6)) < 0.5, 0.0, -0.0)
        assert_pool_bytes_equal(x, 2, maxpool_loops)
        assert_pool_bytes_equal(x, 3, maxpool_loops)

    def test_maxpool_nan_window_gives_nan(self):
        x = np.random.default_rng(13).standard_normal((2, 4, 4))
        x[0, 0, 1] = x[1, 3, 3] = np.nan  # not the first element of its window
        got = ad.maxpool2d(ad.tensor(x), 2).data
        want, _ = maxpool_loops(x, 2, np.zeros((2, 2, 2)))
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.isnan(got).sum() == 2
        assert got[~np.isnan(got)].tobytes() == want[~np.isnan(want)].tobytes()

    @pytest.mark.parametrize("shape", [(8, 64, 64), (16, 32, 32)], ids=["8x64x64", "16x32x32"])
    def test_maxpool_matches_earlier_argmax_pool_bytes(self, shape):
        # the desk model's two pooled feature maps, after ReLU
        x = ad.relu(ad.tensor(np.random.default_rng(shape[0]).standard_normal(shape))).data
        assert_pool_bytes_equal(x, 2, maxpool_argmax)

    @pytest.mark.parametrize(
        "scale, hidden",
        [pytest.param(scale, hidden, id=name if hidden == 64 else f"{name}-H{hidden}")
         for hidden in (64, 8, 3, 1) for scale, name in ((0.2, "moderate"), (10.0, "saturating"))],
    )
    def test_lstm_sequence_matches_earlier_allocating_loop_bytes(self, scale, hidden):
        # 16 steps of width 16, as in the desk model's first layer, whose H
        # is 64; the smaller H put the single tanh's 4H row on SIMD tails.
        # At scale 10 the gate pre-activations spread to about +-40.
        rng = np.random.default_rng(int(scale * 10))
        x = rng.standard_normal((16, 16))
        weights = [rng.standard_normal(s) * scale for s in ((16, 4 * hidden), (hidden, 4 * hidden), (1, 4 * hidden))]
        got, want = ad.lstm_forward(x, *weights), lstm_forward_allocating(x, *weights)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        g = rng.standard_normal((16, hidden))
        # dx, dw_x, dw_h and db against the allocating vjp loop
        gradients = ad.lstm_sequence(*(ad.parameter(a) for a in [x, *weights]))._vjp(g)
        for a, b in zip(gradients, lstm_backward_allocating(x, *weights[:2], *want, g), strict=True):
            assert a.tobytes() == b.tobytes()

    def test_lstm_sequence_matches_per_gate_graph(self):
        # The same layer composed from matmul/add/slice/sigmoid/tanh/mul
        # nodes: forward values and every gradient agree.
        rng = np.random.default_rng(4)
        hidden, steps = 3, 5
        params = [
            ad.parameter(rng.standard_normal(shape))
            for shape in ((steps, 4), (4, 4 * hidden), (hidden, 4 * hidden), (1, 4 * hidden))
        ]

        def composed(ps):
            x, w_x, w_h, b = ps
            h = ad.tensor(np.zeros((1, hidden)))
            c = ad.tensor(np.zeros((1, hidden)))
            hs = []
            for t in range(steps):
                x_t = ad.slice_along(x, 0, t, t + 1)
                a = ad.add(ad.add(ad.matmul(x_t, w_x), ad.matmul(h, w_h)), b)
                i, f, o, g = (ad.slice_along(a, 1, k * hidden, (k + 1) * hidden) for k in range(4))
                i, f, o, g = ad.sigmoid(i), ad.sigmoid(f), ad.sigmoid(o), ad.tanh(g)
                c = ad.add(ad.mul(f, c), ad.mul(i, g))
                h = ad.mul(o, ad.tanh(c))
                hs.append(h)
            return hs

        fused = ad.lstm_sequence(*params)
        reference = composed(params)
        assert np.max(np.abs(fused.data - np.vstack([h.data for h in reference]))) <= 1e-14
        w = rng.standard_normal((steps, hidden))
        g_fused = ad.backward(ad.sum_all(ad.mul(fused, ad.tensor(w))), params=params)
        # each step's h_t receives exactly w[t], as the fused layer's row t does
        loss = ad.sum_all(ad.mul(reference[0], ad.tensor(w[0:1])))
        for t in range(1, steps):
            loss = ad.add(loss, ad.sum_all(ad.mul(reference[t], ad.tensor(w[t : t + 1]))))
        g_ref = ad.backward(loss, params=params)
        for p in params:
            assert np.max(np.abs(g_fused[p] - g_ref[p])) <= 1e-13

    def test_lstm_sequence_shape_errors(self):
        x = ad.tensor(np.zeros((2, 3)))
        w_h, b = ad.tensor(np.zeros((2, 8))), ad.tensor(np.zeros((1, 8)))
        with pytest.raises(ShapeError, match="lstm_sequence"):
            ad.lstm_sequence(x, ad.tensor(np.zeros((4, 8))), w_h, b)
        with pytest.raises(ShapeError, match="lstm_sequence"):
            ad.lstm_sequence(ad.tensor(np.zeros((0, 3))), ad.tensor(np.zeros((3, 8))), w_h, b)
        with pytest.raises(ShapeError, match="lstm_sequence"):
            ad.lstm_sequence(  # w_h with H = 2 rows needs 4H = 8 columns
                x, ad.tensor(np.zeros((3, 6))), ad.tensor(np.zeros((2, 6))), ad.tensor(np.zeros((1, 6)))
            )


class TestBackward:
    def test_sum_of_squares_gradient(self):
        x = ad.parameter(np.full(3, 3.0))
        grads = ad.backward(ad.sum_all(ad.mul(x, x)), params=[x])
        assert np.array_equal(grads[x], np.full(3, 6.0))

    def test_l2norm_subgradient_zero_at_kink(self):
        x = ad.parameter(np.array([1.0, 2.0]))
        y = ad.parameter(np.array([1.0, 2.0]))
        grads = ad.backward(ad.l2norm(ad.sub(x, y)), params=[x, y])
        assert np.array_equal(grads[x], np.zeros(2))
        assert np.array_equal(grads[y], np.zeros(2))

    def test_matmul_sum_gradient_is_ones_bt(self):
        rng = np.random.default_rng(3)
        a = ad.parameter(rng.standard_normal((3, 4)))
        b_const = rng.standard_normal((4, 2))

        def f(params):
            return ad.sum_all(ad.matmul(params[0], ad.tensor(b_const)))

        grads = ad.backward(f([a]), params=[a])
        expected = np.ones((3, 2)) @ b_const.T
        assert np.allclose(grads[a], expected, atol=1e-12)
        numeric = fd_gradients(f, [a], eps=1e-5)[0]
        assert np.allclose(grads[a], numeric, atol=1e-8)

    def test_unreached_leaf_gets_zeros(self):
        x = ad.parameter(np.ones(2))
        unused = ad.parameter(np.ones(3))
        grads = ad.backward(ad.sum_all(x), params=[x, unused])
        assert np.array_equal(grads[unused], np.zeros(3))

    def test_non_scalar_output_rejected(self):
        x = ad.parameter(np.ones((2, 2)))
        with pytest.raises(ShapeError):
            ad.backward(ad.mul(x, x), params=[x])

    def test_single_row_matmul_weight_gradient_is_factored(self):
        rng = np.random.default_rng(5)
        x, w = ad.parameter(rng.standard_normal((1, 3))), ad.parameter(rng.standard_normal((3, 2)))
        c = rng.standard_normal((1, 2))
        grads = ad.backward(ad.sum_all(ad.mul(ad.matmul(x, w), ad.tensor(c))), params=[x, w])
        assert isinstance(grads[w], ad.Outer) and grads[w].shape == (3, 2)
        assert np.asarray(grads[w]).tobytes() == (x.data.T * c).tobytes()

    @pytest.mark.parametrize("rows", [1, 4])
    def test_weight_shared_with_single_row_matmul_gets_dense_sum(self, rows):
        rng = np.random.default_rng(rows)
        w = ad.parameter(rng.standard_normal((3, 2)))
        x1, x2 = rng.standard_normal((1, 3)), rng.standard_normal((rows, 3))
        c1, c2 = rng.standard_normal((1, 2)), rng.standard_normal((rows, 2))
        loss = ad.add(
            ad.sum_all(ad.mul(ad.matmul(ad.tensor(x1), w), ad.tensor(c1))),
            ad.sum_all(ad.mul(ad.matmul(ad.tensor(x2), w), ad.tensor(c2))),
        )
        grad = ad.backward(loss, params=[w])[w]
        assert type(grad) is np.ndarray
        second = x2.T * c2 if rows == 1 else x2.T @ c2
        assert grad.tobytes() == (x1.T * c1 + second).tobytes()

    def test_factored_gradient_survives_update_of_its_left_operand(self):
        # x is updated in place before w's gradient, which is built from x
        runs = []
        for densify in (False, True):
            x, w = ad.parameter(np.ones((1, 3))), ad.parameter(np.ones((3, 2)))
            state = ad.make_opt_state([x, w], lr=0.5, momentum=0.9, weight_decay=0.0)
            for _ in range(2):
                grads = ad.backward(ad.l2norm(ad.matmul(x, w)), params=[x, w])
                if densify:
                    grads = {t: np.asarray(g) for t, g in grads.items()}
                ad.sgd_step([x, w], grads, state)
            runs.append(x.data.tobytes() + w.data.tobytes())
        assert runs[0] == runs[1]

    def test_sum_never_mutates_a_vjp_output(self):
        # each add vjp hands the same array to both of its parents
        x = ad.parameter(np.array([1.0, 2.0]))
        grads = ad.backward(ad.sum_all(ad.add(ad.add(x, x), x)), params=[x])
        assert grads[x].tolist() == [3.0, 3.0]

    def test_reused_tensor_accumulates(self):
        x = ad.parameter(np.array([2.0]))
        # f = x*x + x -> grad 2x + 1 = 5
        out = ad.add(ad.mul(x, x), x)
        grads = ad.backward(ad.sum_all(out), params=[x])
        assert grads[x].tolist() == [5.0]

    @pytest.mark.parametrize(
        "name",
        [
            "add", "sub", "mul", "matmul", "conv2d", "sigmoid", "tanh", "relu",
            "reshape", "slice", "sum", "l2norm", "dropout",
            "maxpool", "linear_pair", "lstm_sequence",
        ],
    )
    def test_op_backward_matches_central_differences(self, name):
        rng = np.random.default_rng(zlib.crc32(name.encode()))

        def randt(*shape):
            return ad.parameter(rng.standard_normal(shape))

        if name == "add":
            p = [randt(3, 4), randt(3, 4)]
            f = lambda ps: ad.sum_all(ad.add(ps[0], ps[1]))
        elif name == "sub":
            p = [randt(3, 4), randt(3, 4)]
            f = lambda ps: ad.sum_all(ad.mul(ad.sub(ps[0], ps[1]), ad.sub(ps[0], ps[1])))
        elif name == "mul":
            p = [randt(2, 5), randt(2, 5)]
            f = lambda ps: ad.sum_all(ad.mul(ps[0], ps[1]))
        elif name == "matmul":
            p = [randt(3, 4), randt(4, 2)]
            f = lambda ps: ad.l2norm(ad.matmul(ps[0], ps[1]))
        elif name == "conv2d":
            p = [randt(2, 5, 5), randt(3, 2, 3, 3), randt(3)]
            f = lambda ps: ad.l2norm(ad.conv2d(ps[0], ps[1], ps[2], 1, 1))
        elif name == "sigmoid":
            p = [randt(4, 3)]
            f = lambda ps: ad.sum_all(ad.sigmoid(ps[0]))
        elif name == "tanh":
            p = [randt(4, 3)]
            f = lambda ps: ad.sum_all(ad.tanh(ps[0]))
        elif name == "relu":
            # keep inputs away from the kink at 0
            p = [ad.parameter(rng.uniform(0.5, 2.0, (3, 3)) * rng.choice([-1, 1], (3, 3)))]
            f = lambda ps: ad.sum_all(ad.relu(ps[0]))
        elif name == "reshape":
            p = [randt(2, 6)]
            f = lambda ps: ad.l2norm(ad.reshape(ps[0], (3, 4)))
        elif name == "slice":
            p = [randt(4, 4)]
            f = lambda ps: ad.l2norm(ad.slice_along(ps[0], axis=1, start=1, stop=3))
        elif name == "sum":
            p = [randt(5)]
            f = lambda ps: ad.sum_all(ps[0])
        elif name == "l2norm":
            p = [ad.parameter(rng.standard_normal(6) + 3.0)]  # away from 0
            f = lambda ps: ad.l2norm(ps[0])
        elif name == "dropout":
            p = [randt(3, 5)]
            f = lambda ps: ad.sum_all(ad.dropout(ps[0], 0.4, seed=7))
        elif name == "maxpool":
            p = [randt(2, 4, 4)]
            f = lambda ps: ad.l2norm(ad.maxpool2d(ps[0], 2))
        elif name == "linear_pair":
            p = [randt(1, 3), randt(3, 4), randt(1, 5), randt(5, 4), randt(1, 4)]
            f = lambda ps: ad.l2norm(ad.linear_pair(*ps))
        elif name == "lstm_sequence":
            p = [randt(4, 3), randt(3, 8), randt(2, 8), randt(1, 8)]
            f = lambda ps: ad.l2norm(ad.lstm_sequence(*ps))
        assert_backward_matches_fd(f, p)


class TestGradCheck:
    def test_quadratic_is_nearly_exact(self):
        x = ad.parameter(np.array([1.0, -2.0, 0.5]))
        err = ad.grad_check(lambda ps: ad.sum_all(ad.mul(ps[0], ps[0])), [x], eps=1e-4)
        assert err < 1e-9

    def test_constant_function_zero_error(self):
        x = ad.parameter(np.ones(3))
        err = ad.grad_check(lambda ps: ad.tensor(np.asarray(5.0)), [x], eps=1e-4)
        assert err == 0.0

    @pytest.mark.parametrize(
        "shapes, weight",
        [
            ([(1, 3), (3, 4), (3, 4)], lambda w1, w2: ad.sub(w1, w2)),
            ([(1, 4), (3, 4)], lambda w: ad.reshape(w, (4, 3))),
            ([(1, 1), (1, 3), (3, 4)], lambda w1, w2: ad.matmul(w1, w2)),
        ],
        ids=["sub", "reshape", "matmul"],
    )
    def test_single_row_matmul_over_a_non_leaf_weight(self, shapes, weight):
        # the weight node's own vjp must be given a dense gradient
        rng = np.random.default_rng(len(shapes) + shapes[0][1])
        ps = [ad.parameter(rng.standard_normal(s)) for s in shapes]
        err = ad.grad_check(lambda ps: ad.l2norm(ad.matmul(ps[0], weight(*ps[1:]))), ps, eps=1e-6)
        assert err < 1e-6

    def test_bad_eps(self):
        x = ad.parameter(np.ones(2))
        with pytest.raises(ValueError):
            ad.grad_check(lambda ps: ad.sum_all(ps[0]), [x], eps=0.0)


class TestSgd:
    def test_tiny_weight_decay_step(self):
        p = ad.parameter(np.array([1.0]))
        state = ad.make_opt_state([p], lr=1e-5, momentum=0.9, weight_decay=1e-6)
        ad.sgd_step([p], {p: np.zeros(1)}, state)
        assert p.data[0] == 1.0 - 1e-11

    def test_vanilla_step(self):
        p = ad.parameter(np.array([2.0]))
        state = ad.make_opt_state([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        ad.sgd_step([p], {p: np.ones(1)}, state)
        assert p.data[0] == pytest.approx(1.9)

    def test_two_momentum_steps(self):
        # v1 = 1, theta1 = -1; v2 = 0.9 + 1 = 1.9, theta2 = -2.9
        p = ad.parameter(np.zeros(1))
        state = ad.make_opt_state([p], lr=1.0, momentum=0.9, weight_decay=0.0)
        for _ in range(2):
            ad.sgd_step([p], {p: np.ones(1)}, state)
        assert p.data[0] == pytest.approx(-2.9)

    def test_zero_lr_is_bit_identical(self):
        rng = np.random.default_rng(8)
        p = ad.parameter(rng.standard_normal((5, 5)))
        before = p.data.copy()
        state = ad.make_opt_state([p], lr=0.0, momentum=0.9, weight_decay=1e-6)
        for _ in range(3):
            ad.sgd_step([p], {p: rng.standard_normal((5, 5))}, state)
        assert np.array_equal(p.data, before)

    def test_fortran_ordered_parameter_is_updated(self):
        p = ad.parameter(np.asfortranarray(np.ones((3, 2))))
        state = ad.make_opt_state([p], lr=0.5, momentum=0.0, weight_decay=0.0)
        ad.sgd_step([p], {p: np.ones((3, 2))}, state)
        assert np.array_equal(p.data, np.full((3, 2), 0.5))

    @pytest.mark.parametrize("layout", ["fortran", "step-sliced"])
    @pytest.mark.parametrize("outer", [False, True], ids=["dense", "outer"])
    def test_non_contiguous_parameter_or_velocity_is_rejected(self, layout, outer):
        # sgd_step updates through flat views, which such an array has not
        def make(fill):
            if layout == "fortran":
                return np.asfortranarray(np.full((4, 3), fill))
            return np.full((8, 3), fill)[::2]

        g = ad.Outer(np.ones(4), np.ones(3))
        g = g if outer else np.asarray(g)
        for p, v in (
            (ad.Tensor(make(1.0), requires_grad=True), np.zeros((4, 3))),
            (ad.parameter(np.ones((4, 3))), make(0.0)),
        ):
            state = ad.OptState(lr=0.5, momentum=0.0, weight_decay=0.0, velocity=[v])
            with pytest.raises(ShapeError, match="C-contiguous"):
                ad.sgd_step([p], {p: g}, state)
            assert np.array_equal(p.data, np.ones((4, 3))) and not v.any()

    def test_gradient_of_another_shape_is_rejected(self):
        p = ad.parameter(np.ones((4, 3)))
        state = ad.make_opt_state([p], lr=0.5, momentum=0.0, weight_decay=0.0)
        with pytest.raises(ShapeError, match=r"gradient shape \(3, 4\) vs parameter \(4, 3\)"):
            ad.sgd_step([p], {p: np.ones((3, 4))}, state)
        assert np.array_equal(p.data, np.ones((4, 3))) and not state.velocity[0].any()

    @pytest.mark.parametrize("kind", ["unaligned", "float32", "read-only"])
    @pytest.mark.parametrize("which", ["parameter", "velocity"])
    def test_array_daxpy_cannot_update_in_place_is_rejected(self, kind, which):
        # f2py's daxpy updates a copy of an unaligned or float32 y and
        # returns it, so the step would be lost; a read-only y it writes anyway
        def make(fill):
            if kind == "unaligned":
                a = np.frombuffer(bytearray(4 * 8 + 1), np.float64, 4, offset=1)
                a[...] = fill
                return a
            if kind == "float32":
                return np.full(4, fill, np.float32)
            a = np.full(4, fill)
            a.flags.writeable = False
            return a

        p = ad.parameter(np.ones(4))
        if which == "parameter":
            p.data = make(1.0)  # Tensor() would convert a float32 array
        v = make(0.5) if which == "velocity" else np.full(4, 0.5)
        ok = ad.parameter(np.ones(2))
        state = ad.OptState(lr=0.5, momentum=0.9, weight_decay=1e-2, velocity=[np.zeros(2), v])
        with pytest.raises(ShapeError, match="writeable, aligned, C-contiguous float64"):
            ad.sgd_step([ok, p], {ok: np.ones(2), p: np.ones(4)}, state)
        assert (p.data == 1.0).all() and (v == 0.5).all()
        assert (ok.data == 1.0).all() and not state.velocity[0].any()

    def test_non_finite_gradient_aborts(self):
        p = ad.parameter(np.ones(3))
        state = ad.make_opt_state([p], lr=0.1, momentum=0.0, weight_decay=0.0)
        with pytest.raises(NumericError):
            ad.sgd_step([p], {p: np.array([1.0, np.nan, 0.0])}, state)

    def test_non_finite_last_gradient_leaves_every_tensor_untouched(self):
        assert_last_gradient_rejected(np.array([1.0, 2.0, np.nan, 0.0]))

    @pytest.mark.parametrize(
        "u, v",
        [
            ([1.0, np.nan, 0.0, 2.0], [1.0, 0.0]),  # NaN factor
            ([1.0, np.inf, 0.0, 2.0], [0.0, 0.0]),  # inf * 0 = NaN
            ([1e200, 1.0, 0.0, 2.0], [1e200, -1.0]),  # overflow
        ],
    )
    def test_non_finite_outer_gradient_leaves_every_tensor_untouched(self, u, v):
        assert_last_gradient_rejected(ad.Outer(np.array(u), np.array(v)))

    @pytest.mark.parametrize(
        "shape", [(300, 7), (4096, 256), (4097, 256), (1, 5), (5000, 7), (3, 40000)]
    )
    @pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
    @pytest.mark.parametrize("momentum", [0.9, 0.0])
    @pytest.mark.parametrize("special", [False, True], ids=["normal", "zeros-tiny-huge"])
    def test_outer_gradient_steps_match_dense(self, shape, weight_decay, momentum, special):
        # (4097, 256) leaves a one-row final block. Momentum 0 makes -0.0
        # velocities (v *= 0). ``special`` factors hold signed zeros, the
        # smallest subnormal and magnitudes near 1e+-150 whose products stay
        # finite, so fill-then-scale must keep the bytes of np.asarray(Outer).
        rng = np.random.default_rng(shape[0] * shape[1])
        factored, dense = (ad.parameter(rng.standard_normal(shape)) for _ in range(2))
        dense.data[...] = factored.data
        states = [ad.make_opt_state([p], 0.05, momentum, weight_decay) for p in (factored, dense)]
        for _ in range(3):
            u, v = rng.standard_normal(shape[0]), rng.standard_normal(shape[1])
            if special:  # every other element
                values = [0.0, -0.0, 5e-324, -5e-324, 1e150, -1e150, 1e-150, -1e-150]
                for factor in (u, v):
                    factor[::2] = rng.choice(values, factor[::2].size)
            g = ad.Outer(u, v)
            ad.sgd_step([factored], {factored: g}, states[0])
            ad.sgd_step([dense], {dense: np.asarray(g)}, states[1])
            assert factored.data.tobytes() == dense.data.tobytes()
            assert states[0].velocity[0].tobytes() == states[1].velocity[0].tobytes()

    def test_outer_gradient_near_overflow_is_applied(self):
        u, v = np.array([1e150, 1.0]), np.array([1e150, -1.0])
        p = ad.parameter(np.zeros((2, 2)))
        state = ad.make_opt_state([p], lr=1.0, momentum=0.0, weight_decay=0.0)
        ad.sgd_step([p], {p: ad.Outer(u, v)}, state)
        assert p.data.tobytes() == (-(u[:, None] * v)).tobytes()
        assert np.isfinite(p.data).all()

    def test_outer_array_refuses_copy_false(self):
        u, v = np.array([1.5, -0.0]), np.array([3.0])
        g = ad.Outer(u, v)
        with pytest.raises(ValueError, match="copy=False"):
            np.asarray(g, copy=False)
        product = u[:, None] * v
        assert np.asarray(g).tobytes() == product.tobytes()
        as32 = np.array(g, dtype=np.float32)
        assert as32.dtype == np.float32 and as32.tobytes() == product.astype(np.float32).tobytes()

    @pytest.mark.parametrize("a", [-1e-3, 1e-6, -0.0])
    def test_loaded_daxpy_matches_scipy_linalg_blas(self, a):
        # the same compiled routine, so the same bytes: signed zeros,
        # subnormals, infinities and NaNs included
        from scipy.linalg.blas import daxpy as public

        rng = np.random.default_rng(19)
        x, y = rng.standard_normal(200_000), rng.standard_normal(200_000)
        special = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, np.inf, -np.inf, np.nan]
        for arr in (x, y):
            arr[::7] = rng.choice(special, arr[::7].size)
        got, want = ad._load_daxpy()(x, y.copy(), a=a), public(x, y.copy(), a=a)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


def assert_last_gradient_rejected(bad):
    """sgd_step with ``bad`` as the last of three gradients raises
    NumericError and leaves every parameter and velocity untouched."""
    rng = np.random.default_rng(3)
    params = [ad.parameter(rng.standard_normal(shape)) for shape in ((3,), (2, 2), bad.shape)]
    state = ad.make_opt_state(params, lr=0.1, momentum=0.9, weight_decay=1e-3)
    ad.sgd_step(params, {p: np.ones(p.data.shape) for p in params}, state)  # non-zero velocities
    before = [p.data.copy() for p in params] + [v.copy() for v in state.velocity]
    grads = {p: np.ones(p.data.shape) for p in params}
    grads[params[-1]] = bad
    with pytest.raises(NumericError):
        ad.sgd_step(params, grads, state)
    after = [p.data for p in params] + state.velocity
    assert all(a.tobytes() == b.tobytes() for a, b in zip(after, before))
