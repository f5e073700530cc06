import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evpose import autodiff as ad
from evpose import config
from evpose import model as m
from evpose.errors import DegenerateOutputError, ShapeError
from evpose.event_image import EventImage, build_image
from evpose.events import EVENT_DTYPE, Poses
from oracles import cnn_forward_relu_then_pool, lstm_sequence_scalar, lstm_step_scalar


def blank_image(h=8, w=8):
    return EventImage(np.full((h, w), 0.5))


def zero_layer(in_dim, hidden):
    """Fused (w_x, w_h, b) tensors of one LSTM layer, all zero."""
    shapes = ((in_dim, 4 * hidden), (hidden, 4 * hidden), (1, 4 * hidden))
    return tuple(ad.tensor(np.zeros(shape)) for shape in shapes)


def random_layer(rng, in_dim, hidden, scale=0.5):
    shapes = ((in_dim, 4 * hidden), (hidden, 4 * hidden), (1, 4 * hidden))
    return tuple(ad.tensor(rng.standard_normal(shape) * scale) for shape in shapes)


def arrays(layer):
    return [t.data for t in layer]


def run_layer(xs, layer):
    """Hidden states, cell states and activated gates of one layer over the rows of xs."""
    return ad.lstm_forward(np.asarray(xs, dtype=float), *arrays(layer))


def count_graph_nodes(out):
    """Non-leaf tensors reachable from ``out``."""
    seen, stack, count = set(), [out], 0
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            count += node._vjp is not None
            stack.extend(node._parents)
    return count


class TestModelConfig:
    def test_feature_dim_must_be_square(self):
        with pytest.raises(ValueError):
            m.ModelConfig(feature_dim=15)

    @pytest.mark.parametrize(
        "bad",
        [dict(lstm_hidden=0), dict(fc_hidden=0), dict(input_h=0), dict(feature_dim=0),
         dict(conv_blocks=((4, 3, 0, 2),)), dict(conv_blocks=((4, 3, 1),)), dict(input_w=9)],
        ids=["lstm-hidden", "fc-hidden", "input-h", "feature-dim", "stride", "short-block", "pool-tiling"],
    )
    def test_sizes_checked_at_construction(self, bad):
        with pytest.raises(ValueError):
            dataclasses.replace(m.toy_config(), **bad)

    def test_seq_len(self):
        assert m.toy_config().seq_len == 4
        assert m.desk_config().seq_len == 16

    def test_dict_round_trip(self):
        cfg = m.toy_config()
        assert config.from_dict(m.ModelConfig, dataclasses.asdict(cfg)) == cfg

    def test_manifest_shapes_consistent(self):
        cfg = m.toy_config()
        params = m.init_params(cfg, seed=0)
        for name, shape in m.param_manifest(cfg):
            assert params.tensors[name].data.shape == shape


class TestCnnForward:
    def test_blank_image_finite_features(self):
        cfg = m.toy_config()
        params = m.init_params(cfg, seed=0)
        out = m.cnn_forward(blank_image(), params)
        assert out.data.shape == (1, 16)
        assert np.all(np.isfinite(out.data))

    def test_inference_deterministic(self):
        cfg = m.toy_config()
        params = m.init_params(cfg, seed=1)
        a = m.cnn_forward(blank_image(), params)
        b = m.cnn_forward(blank_image(), params)
        assert np.array_equal(a.data, b.data)

    def test_f16_on_32x32_input(self):
        cfg = m.ModelConfig(
            input_h=32,
            input_w=32,
            conv_blocks=((4, 3, 1, 2), (8, 3, 1, 2)),
            feature_dim=16,
            lstm_hidden=8,
            lstm_layers=2,
            fc_hidden=8,
        )
        params = m.init_params(cfg, seed=0)
        out = m.cnn_forward(blank_image(32, 32), params)
        assert out.data.size == 16
        assert out.data.reshape(4, 4).shape == (4, 4)

    def test_wrong_image_size(self):
        params = m.init_params(m.toy_config(), seed=0)
        with pytest.raises(ShapeError):
            m.cnn_forward(blank_image(16, 16), params)
        with pytest.raises(ShapeError):
            m.predict(blank_image(4, 4), params)  # the 8x8 toy model
        with pytest.raises(TypeError):  # the size is the pixels' shape alone
            EventImage(np.full((4, 4), 0.5), 8, 8)


class TestReshapeFeatures:
    def test_row_major_order(self):
        v = ad.tensor(np.arange(1.0, 17.0).reshape(1, 16))
        grid = m.reshape_features(v)
        assert grid.data.shape == (4, 4)
        assert grid.data[0].tolist() == [1.0, 2.0, 3.0, 4.0]
        assert grid.data[3].tolist() == [13.0, 14.0, 15.0, 16.0]

    def test_reshape_then_flatten_is_identity(self):
        v = ad.tensor(np.arange(16.0).reshape(1, 16))
        grid = m.reshape_features(v)
        assert np.array_equal(grid.data.reshape(-1), v.data[0])

    def test_non_square_length(self):
        with pytest.raises(ShapeError):
            m.reshape_features(ad.tensor(np.zeros((1, 15))))


class TestLstmStep:
    """The LSTM cell, stepped by one layer's ``lstm_forward`` from a zero state."""

    def test_zero_everything(self):
        hs, cs, _ = run_layer(np.zeros((3, 4)), zero_layer(4, 4))
        assert np.all(cs == 0.0)
        assert np.all(hs == 0.0)

    def test_zero_weights_with_carried_cell(self):
        # Step 0 writes a cell through the g column of w_x. Step 1 has zero
        # input and zero weights, so i = f = o = 1/2 and g = 0: the carried
        # cell halves.
        layer = zero_layer(1, 1)
        layer[0].data[0, 3] = 1.0
        hs, cs, _ = run_layer([[1.0], [0.0]], layer)
        assert cs[0, 0] == pytest.approx(0.5 * math.tanh(1.0))
        assert cs[1, 0] == 0.5 * cs[0, 0]
        assert hs[1, 0] == pytest.approx(0.5 * math.tanh(cs[1, 0]), abs=1e-15)

    def test_zero_input_kills_input_weights(self):
        layer = zero_layer(1, 1)
        layer[2].data[0, 3] = 1.0  # g bias: carries a growing cell
        base_hs, base_cs, _ = run_layer(np.zeros((3, 1)), layer)
        layer[0].data[:] = 1.0
        hs, cs, _ = run_layer(np.zeros((3, 1)), layer)
        assert np.array_equal(hs, base_hs) and np.array_equal(cs, base_cs)
        c = 0.0
        for t in range(3):
            c = 0.5 * c + 0.5 * math.tanh(1.0)
            assert cs[t, 0] == pytest.approx(c)
            assert hs[t, 0] == pytest.approx(0.5 * math.tanh(c), abs=1e-15)

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            layer = random_layer(rng, 8, 8)
            xs = rng.standard_normal((5, 8))
            hs, cs, _ = run_layer(xs, layer)
            h_ref, c_ref = lstm_sequence_scalar(xs, arrays(layer))
            assert np.max(np.abs(hs - np.array(h_ref))) <= 1e-12
            assert np.max(np.abs(cs - np.array(c_ref))) <= 1e-12
            assert np.array_equal(ad.lstm_sequence(ad.tensor(xs), *layer).data, hs)

    def test_gate_ranges_and_bounded_cell_growth(self):
        rng = np.random.default_rng(7)
        layer = random_layer(rng, 6, 6, scale=2.0)
        hs, cs, acts = run_layer(rng.standard_normal((20, 6)) * 3, layer)
        assert np.all((acts[:, :18] >= 0.0) & (acts[:, :18] <= 1.0))  # i, f, o
        assert np.all(np.abs(acts[:, 18:]) <= 1.0)  # g
        prev = np.zeros(6)
        for c in cs:
            assert np.all(np.abs(c) <= np.abs(prev) + 1.0 + 1e-12)
            prev = c
        assert np.all(np.abs(hs) < 1.0)


class TestStackedLstm:
    def test_single_layer_single_step_equals_lstm_step(self):
        rng = np.random.default_rng(3)
        layer = random_layer(rng, 5, 5)
        x = rng.standard_normal((1, 5))
        via_stack = m.stacked_lstm_forward(ad.tensor(x), [layer])
        h_ref, _ = lstm_step_scalar(x[0].tolist(), [0.0] * 5, [0.0] * 5, arrays(layer))
        assert np.array_equal(via_stack.data, run_layer(x, layer)[0])
        assert np.max(np.abs(via_stack.data[0] - np.array(h_ref))) <= 1e-12

    def test_zero_params_zero_output(self):
        rng = np.random.default_rng(4)
        layers = [zero_layer(5, 5), zero_layer(5, 5)]
        out = m.stacked_lstm_forward(ad.tensor(rng.standard_normal((6, 5))), layers)
        assert out.data.shape == (1, 5)
        assert np.all(out.data == 0.0)

    def test_two_layers_match_manual_chaining(self):
        rng = np.random.default_rng(5)
        l0 = random_layer(rng, 4, 6)
        l1 = random_layer(rng, 6, 6)
        xs = rng.standard_normal((7, 4))
        out = m.stacked_lstm_forward(ad.tensor(xs), [l0, l1])
        # independent two-pass chaining
        hidden_seq, _, _ = run_layer(xs, l0)
        top, _, _ = run_layer(hidden_seq, l1)
        assert np.array_equal(out.data, top[-1:])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ShapeError):
            m.stacked_lstm_forward(ad.tensor(np.zeros((0, 4))), [zero_layer(4, 4)])


class TestPoseHead:
    def test_zero_weights_yield_bias(self):
        cfg = m.toy_config()
        params = m.init_params(cfg, seed=0)
        for name in ("head.fc1.w", "head.fc1.b", "head.out.w"):
            params.tensors[name].data[:] = 0.0
        params.tensors["head.out.b"].data[:] = np.arange(7.0)
        out = m.pose_head(ad.tensor(np.ones((1, cfg.lstm_hidden))), params)
        assert out.data[0].tolist() == list(range(7))

    def test_output_length_seven_and_finite(self):
        cfg = m.toy_config()
        params = m.init_params(cfg, seed=2)
        out = m.pose_head(ad.tensor(np.random.default_rng(0).standard_normal((1, 8))), params)
        assert out.data.shape == (1, 7)
        assert np.all(np.isfinite(out.data))


class TestPoseLoss:
    def label(self, p=(0.0, 0.0, 0.0), q=(0.0, 0.0, 0.0, 1.0)):
        return Poses(0.0, np.array(p, dtype=float), np.array(q, dtype=float))

    def test_exact_prediction_zero_loss(self):
        pred = ad.tensor(np.array([[1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 1.0]]))
        loss = m.pose_loss(pred, self.label(p=(1.0, 2.0, 3.0)))
        assert float(loss.data) == 0.0

    def test_three_four_five(self):
        pred = ad.tensor(np.array([[3.0, 4.0, 0.0, 0.0, 0.0, 0.0, 1.0]]))
        assert float(m.pose_loss(pred, self.label()).data) == pytest.approx(5.0)

    def test_quaternion_unit_offset(self):
        pred = ad.tensor(np.array([[0.0, 0.0, 0.0, 0.1, 0.0, 0.0, 1.0]]))
        assert float(m.pose_loss(pred, self.label()).data) == pytest.approx(0.1)

    def test_desk_training_step_graph_is_small(self):
        # one node per LSTM layer: the per-gate graph built 455
        params = m.init_params(m.desk_config(), seed=0)
        out = m.forward(blank_image(64, 64), params, dropout_seed=0)
        assert count_graph_nodes(m.pose_loss(out, self.label())) <= 40

    def test_dropout_node_only_when_seeded(self):
        params = m.init_params(m.toy_config(), seed=0)
        unseeded = count_graph_nodes(m.forward(blank_image(), params))
        assert count_graph_nodes(m.forward(blank_image(), params, dropout_seed=0)) == unseeded + 1

    def test_differentiable_through_network(self):
        cfg = m.toy_config()
        params = m.init_params(cfg, seed=3)
        out = m.forward(blank_image(), params)
        loss = m.pose_loss(out, self.label())
        grads = ad.backward(loss, params=params.ordered())
        assert all(np.all(np.isfinite(g)) for g in grads.values())


def conv_blocks_with_zeros_and_ties(weights, rng):
    """Two-block parameters whose conv outputs hold dead channels, exact
    zeros and windows whose positive maximum is tied.

    Channel 0 of each block has every output negative; channel 1 has zero
    weights and a bias of -0.0, so every output is 0.0 (a GEMM sums from
    +0.0, so no conv output is -0.0). With "integer" weights on ternary
    pixels most outputs are small multiples of 0.5.
    """
    cfg = m.ModelConfig(input_h=16, input_w=16, conv_blocks=((4, 3, 1, 2), (6, 3, 1, 2)),
                        feature_dim=16, lstm_hidden=4, lstm_layers=1, fc_hidden=4)
    params = m.init_params(cfg, seed=9)
    for i in range(len(cfg.conv_blocks)):
        w, b = params.tensors[f"conv{i}.w"].data, params.tensors[f"conv{i}.b"].data
        if weights == "integer":
            w[...] = rng.integers(-1, 2, size=w.shape)
            b[...] = rng.choice([0.0, -0.0, 0.5, -0.5], size=b.shape)
        else:
            b[...] = rng.standard_normal(b.shape) * 0.1
        b[0] = -100.0
        w[1], b[1] = 0.0, -0.0
    return params


@pytest.mark.parametrize("seeded", [False, True], ids=["inference", "training"])
@pytest.mark.parametrize("weights", ["integer", "gaussian"])
def test_pool_then_relu_matches_earlier_relu_then_pool_bytes(weights, seeded):
    # A window with no positive value sends its gradient, a zero whose sign
    # is that of g, to another element in each order; every parameter
    # gradient must still come out with the same bytes.
    rng = np.random.default_rng(17)
    params = conv_blocks_with_zeros_and_ties(weights, rng)
    cfg = params.config
    tensors = [params.tensors[name] for name, _ in m.param_manifest(cfg) if name.startswith(("conv", "feat"))]
    ties = 0
    for k in range(12):
        j = k % 4  # from all-0.5 pixels to 60% zeros and 30% ones
        pixels = rng.choice([0.0, 0.5, 1.0], p=[0.2 * j, 1.0 - 0.3 * j, 0.1 * j], size=(16, 16))
        first = ad.conv2d(ad.tensor(pixels[None]), *(params.tensors[f"conv0.{p}"] for p in "wb"), 1, 1).data
        windows = first.reshape(4, 8, 2, 8, 2).transpose(0, 1, 3, 2, 4).reshape(4, 8, 8, 4)
        top = windows.max(axis=3)
        ties += int(((windows == top[..., None]).sum(axis=3) > 1)[top > 0.0].sum())
        g = ad.tensor(rng.standard_normal((1, cfg.feature_dim)))
        outs = [f(EventImage(pixels), params, dropout_seed=k if seeded else None)
                for f in (m.cnn_forward, cnn_forward_relu_then_pool)]
        assert outs[0].data.tobytes() == outs[1].data.tobytes()
        got, want = (ad.backward(ad.sum_all(ad.mul(out, g)), tensors) for out in outs)
        for t in tensors:
            assert np.asarray(got[t]).tobytes() == np.asarray(want[t]).tobytes()
    assert ties > 0 or weights == "gaussian"


def test_pool_then_relu_equals_relu_then_pool_on_signed_zeros():
    # -0.0 reaches no conv output, so the op pair is checked on its own:
    # the same bytes forward, and the same gradient up to where a zero goes.
    rng = np.random.default_rng(18)
    x = rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(3, 8, 8))
    x[0] = -rng.random((8, 8))  # a dead channel
    x[1, :2, :2] = -0.0  # a window of negative zeros
    g = ad.tensor(rng.standard_normal((3, 4, 4)))
    leaf = ad.parameter(x)
    outs = [ad.relu(ad.maxpool2d(leaf, 2)), ad.maxpool2d(ad.relu(leaf), 2)]
    assert outs[0].data.tobytes() == outs[1].data.tobytes()
    assert not np.signbit(outs[0].data).any()
    got, want = (ad.backward(ad.sum_all(ad.mul(out, g)), [leaf])[leaf] for out in outs)
    assert np.array_equal(got, want)


class TestPredict:
    def test_unit_quaternion_and_determinism(self):
        cfg = m.toy_config()
        params = m.init_params(cfg, seed=4)
        a = m.predict(blank_image(), params)
        b = m.predict(blank_image(), params)
        assert abs(np.linalg.norm(a.q_hat) - 1.0) < 1e-9
        assert np.array_equal(a.p_hat, b.p_hat)
        assert np.array_equal(a.q_hat, b.q_hat)

    def test_normalization_scale_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            q = rng.standard_normal(4)
            for c in (0.1, 2.0, 1234.5):
                assert np.allclose(m.unit_quaternion(q), m.unit_quaternion(c * q), atol=1e-15)

    def test_zero_norm_is_degenerate(self):
        with pytest.raises(DegenerateOutputError):
            m.unit_quaternion(np.zeros(4))

    def test_tiny_quaternion_is_unit_or_degenerate(self):
        # squares below the normal range leave a norm too coarse to scale by
        rng = np.random.default_rng(8)
        for q in [np.array([1.0, 0.3, 0.2, 0.9]), *rng.standard_normal((20, 4))]:
            for exponent in range(150, 163):
                try:
                    unit = m.unit_quaternion(q * 10.0**-exponent)
                except DegenerateOutputError:
                    continue
                assert abs(m.vector_norm(unit) - 1.0) <= 1e-6
        small = np.array([1e-150, 3e-151, 2e-151, 9e-151])
        assert np.array_equal(m.unit_quaternion(small), small / m.vector_norm(small))
        with pytest.raises(DegenerateOutputError, match="too small"):  # 7.7e-5 off unit length before
            m.unit_quaternion(np.array([1e-160, 3e-161, 2e-161, 9e-161]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_position_is_degenerate(self, bad):
        params = m.init_params(m.toy_config(), seed=4)
        rng = np.random.default_rng(7)
        for t in params.tensors.values():
            if not t.data.any():  # small random biases keep the head alive
                t.data[...] = rng.uniform(-0.1, 0.1, size=t.data.shape)
        assert np.isfinite(m.predict(blank_image(), params).p_hat).all()
        params.tensors["head.out.b"].data[0, 0] = bad
        with pytest.raises(DegenerateOutputError, match="position"):
            m.predict(blank_image(), params)


def test_predict_of_a_float16_image_equals_its_float64_pixels():
    cfg = m.toy_config()
    params = m.init_params(cfg, seed=3)
    rng = np.random.default_rng(8)
    for _ in range(5):
        n = int(rng.integers(1, 60))
        evs = np.zeros(n, EVENT_DTYPE)
        evs["x"], evs["y"] = rng.integers(0, cfg.input_w, n), rng.integers(0, cfg.input_h, n)
        evs["rho"] = rng.choice([-1, 1], n)
        image = build_image(evs, cfg.input_h, cfg.input_w)
        assert image.pixels.dtype == np.float16
        a = m.predict(image, params)
        b = m.predict(EventImage(image.pixels.astype(np.float64)), params)
        assert [v.tobytes() for v in (a.p_hat, a.q_hat_raw, a.q_hat)] == [v.tobytes() for v in (b.p_hat, b.q_hat_raw, b.q_hat)]


@settings(max_examples=300, deadline=None, database=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40), st.integers(1, 3))
def test_vector_norm_equals_linalg_norm_bytes(values, step):
    # step > 1 passes a strided view, whose dot product can round otherwise
    v = np.array(values)[::step]
    with np.errstate(over="ignore"):
        assert np.float64(m.vector_norm(v)).tobytes() == np.float64(np.linalg.norm(v)).tobytes()
