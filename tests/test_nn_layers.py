"""Layer semantics beyond gradients: shapes, modes, validation."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.layers import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Embedding,
    Flatten,
    LayerNorm,
    Linear,
    MaxPool2d,
    MultiHeadSelfAttention,
    Residual,
    Sequential,
)
from tests.test_nn_fastpath_differential import log_softmax, softmax

RNG = np.random.default_rng(0)


class TestShapes:
    def test_linear_output_shape(self):
        assert Linear(5, 7, rng=0).forward(RNG.normal(size=(3, 5))).shape == (3, 7)

    def test_conv_output_shape(self):
        out = Conv2d(3, 8, 3, stride=2, padding=1, rng=0).forward(
            RNG.normal(size=(2, 3, 16, 16))
        )
        assert out.shape == (2, 8, 8, 8)

    def test_maxpool_shape(self):
        out = MaxPool2d(2).forward(RNG.normal(size=(2, 3, 8, 8)))
        assert out.shape == (2, 3, 4, 4)

    def test_avgpool_matches_mean(self):
        x = RNG.normal(size=(1, 1, 4, 4))
        out = AvgPool2d(2).forward(x)
        assert out[0, 0, 0, 0] == pytest.approx(x[0, 0, :2, :2].mean())

    def test_flatten_roundtrip(self):
        f = Flatten()
        x = RNG.normal(size=(2, 3, 4))
        out = f.forward(x)
        assert out.shape == (2, 12)
        assert f.backward(out).shape == x.shape

    def test_attention_preserves_shape(self):
        out = MultiHeadSelfAttention(8, 2, rng=0).forward(RNG.normal(size=(2, 5, 8)))
        assert out.shape == (2, 5, 8)


class TestLinearSkipInputGrad:
    @pytest.mark.parametrize("shape", [(6, 5), (2, 3, 5)])
    def test_parameter_grads_are_bitwise_equal(self, shape):
        x, g = RNG.normal(size=shape), RNG.normal(size=(*shape[:-1], 7))
        plain, skip = Linear(5, 7, rng=0), Linear(5, 7, rng=0)
        skip.skip_input_grad = True
        plain.forward(x), skip.forward(x)
        dx = plain.backward(g)
        assert dx.shape == x.shape  # the default still returns dx
        assert skip.backward(g) is None
        np.testing.assert_array_equal(skip.weight.grad, plain.weight.grad)
        np.testing.assert_array_equal(skip.bias.grad, plain.bias.grad)

    def test_only_input_layers_set_it(self):
        from repro.nn.models import build_model

        def flagged(model):
            return [m for m in model.modules()
                    if isinstance(m, Linear) and m.skip_input_grad]

        mlp = build_model("mlp", in_features=8, n_classes=3, hidden=(6, 6), rng=0)
        assert flagged(mlp) == [mlp.net.layers[0]]
        assert flagged(build_model("smallvgg", rng=0)) == []
        assert flagged(build_model("tinytransformer", rng=0)) == []

    def test_mlp_gradients_match_the_full_backward(self):
        from repro.nn.models import build_model

        x, g = RNG.normal(size=(4, 8)), RNG.normal(size=(4, 3))
        skip = build_model("mlp", in_features=8, n_classes=3, rng=0)
        full = build_model("mlp", in_features=8, n_classes=3, rng=0)
        full.net.layers[0].skip_input_grad = False
        skip.forward(x), full.forward(x)
        assert skip.backward(g) is None and full.backward(g).shape == x.shape
        np.testing.assert_array_equal(skip.get_flat_grads(), full.get_flat_grads())


class TestConvStemSkipsInputGrad:
    """No model reads the gradient w.r.t. its input images, so the first
    conv of every conv model skips the dx GEMMs — and nothing else changes."""

    @staticmethod
    def conv_models():
        from repro.nn.models import MODELS, build_model

        built = {name: build_model(name, rng=0) for name in MODELS}
        return {
            name: [m for m in model.modules() if isinstance(m, Conv2d)]
            for name, model in built.items()
            if any(isinstance(m, Conv2d) for m in model.modules())
        }

    def test_the_first_conv_of_every_conv_model_skips_its_input_gradient(self):
        convs = self.conv_models()
        assert sorted(convs) == ["smallalexnet", "smallresnet", "smallvgg"]
        for name, layers in convs.items():
            assert [c.skip_input_grad for c in layers] == [True] + [False] * (len(layers) - 1), name

    @pytest.mark.parametrize("name", ["smallalexnet", "smallresnet", "smallvgg"])
    def test_parameter_gradients_are_bitwise_equal_to_the_full_backward(self, name):
        from repro.nn.models import build_model

        x = RNG.normal(size=(4, 3, 16, 16))
        skip, full = build_model(name, rng=1), build_model(name, rng=1)
        stem = next(m for m in full.modules() if isinstance(m, Conv2d))
        stem.skip_input_grad = False
        g = RNG.normal(size=skip.forward(x).shape)
        full.forward(x)
        assert skip.backward(g) is None and full.backward(g).shape == x.shape
        assert skip.get_flat_grads().tobytes() == full.get_flat_grads().tobytes()


class TestValidation:
    def test_linear_wrong_features(self):
        with pytest.raises(ValueError, match="last dim"):
            Linear(5, 3, rng=0).forward(RNG.normal(size=(2, 4)))

    def test_conv_wrong_channels(self):
        with pytest.raises(ValueError, match="Conv2d expected"):
            Conv2d(3, 4, 3, rng=0).forward(RNG.normal(size=(2, 2, 8, 8)))

    def test_conv_kernel_too_large(self):
        with pytest.raises(ValueError, match="collapsed"):
            Conv2d(1, 1, 9, rng=0).forward(RNG.normal(size=(1, 1, 4, 4)))

    def test_attention_head_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            MultiHeadSelfAttention(7, 2, rng=0)

    def test_dropout_probability_range(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)

    def test_embedding_rejects_floats(self):
        with pytest.raises(TypeError):
            Embedding(10, 4, rng=0).forward(np.zeros((2, 3)))

    def test_embedding_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Embedding(10, 4, rng=0).forward(np.array([[11]]))

    def test_residual_shape_mismatch(self):
        body = Conv2d(2, 4, 3, stride=2, padding=1, rng=0)
        with pytest.raises(ValueError, match="projection"):
            Residual(body).forward(RNG.normal(size=(1, 2, 4, 4)))


class TestBatchNorm:
    def test_normalizes_in_train_mode(self):
        bn = BatchNorm2d(3)
        x = RNG.normal(loc=5.0, scale=2.0, size=(8, 3, 4, 4))
        out = bn.forward(x)
        assert abs(out.mean()) < 1e-8
        assert out.std() == pytest.approx(1.0, abs=1e-2)

    def test_running_stats_converge(self):
        bn = BatchNorm2d(1, momentum=0.5)
        x = RNG.normal(loc=3.0, size=(64, 1, 2, 2))
        for _ in range(20):
            bn.forward(x)
        assert bn.running_mean[0] == pytest.approx(x.mean(), abs=0.1)

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(1)
        x = RNG.normal(size=(16, 1, 2, 2))
        bn.forward(x)
        bn.eval()
        y1 = bn.forward(x[:4])
        y2 = bn.forward(x[:4])
        assert np.array_equal(y1, y2)  # deterministic in eval

    def test_running_buffers_not_parameters(self):
        bn = BatchNorm2d(2)
        names = [n for n, _ in bn.named_parameters()]
        assert set(names) == {"weight", "bias"}


class TestLayerNorm:
    def test_normalizes_last_axis(self):
        ln = LayerNorm(8)
        x = RNG.normal(loc=4.0, size=(3, 8))
        out = ln.forward(x)
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-9)

    def test_wrong_dim(self):
        with pytest.raises(ValueError):
            LayerNorm(8).forward(RNG.normal(size=(3, 7)))


class TestDropout:
    def test_eval_is_identity(self):
        d = Dropout(0.9, rng=0)
        d.eval()
        x = RNG.normal(size=(4, 5))
        assert np.array_equal(d.forward(x), x)

    def test_train_scales_kept_units(self):
        d = Dropout(0.5, rng=0)
        x = np.ones((2000,))
        out = d.forward(x)
        kept = out[out != 0]
        assert np.allclose(kept, 2.0)  # 1 / (1 - 0.5)
        assert out.mean() == pytest.approx(1.0, abs=0.1)

    def test_zero_probability_identity(self):
        d = Dropout(0.0)
        x = RNG.normal(size=(3, 3))
        assert np.array_equal(d.forward(x), x)


class TestEmbedding:
    def test_lookup(self):
        e = Embedding(10, 4, rng=0)
        ids = np.array([[1, 2], [2, 1]])
        out = e.forward(ids)
        assert out.shape == (2, 2, 4)
        assert np.array_equal(out[0, 1], out[1, 0])  # same token, same vector

    def test_repeated_tokens_accumulate_gradient(self):
        e = Embedding(5, 2, rng=0)
        ids = np.array([1, 1, 1])
        e.forward(ids)
        e.backward(np.ones((3, 2)))
        assert np.allclose(e.weight.grad[1], [3.0, 3.0])
        assert not np.any(e.weight.grad[0])


class TestAttentionCausality:
    def test_causal_mask_blocks_future(self):
        """Changing a future token must not affect earlier outputs."""
        attn = MultiHeadSelfAttention(8, 2, causal=True, rng=0)
        x = RNG.normal(size=(1, 5, 8))
        out1 = attn.forward(x).copy()  # the next forward reuses the buffer
        x2 = x.copy()
        x2[0, 4] += 10.0  # perturb the last position only
        out2 = attn.forward(x2)
        assert np.allclose(out1[0, :4], out2[0, :4])
        assert not np.allclose(out1[0, 4], out2[0, 4])

    def test_noncausal_sees_everything(self):
        attn = MultiHeadSelfAttention(8, 2, causal=False, rng=0)
        x = RNG.normal(size=(1, 5, 8))
        out1 = attn.forward(x).copy()  # the next forward reuses the buffer
        x2 = x.copy()
        x2[0, 4] += 10.0
        out2 = attn.forward(x2)
        assert not np.allclose(out1[0, 0], out2[0, 0])


class TestFunctional:
    def test_softmax_rows_sum_to_one(self):
        p = softmax(RNG.normal(size=(4, 7)))
        assert np.allclose(p.sum(axis=-1), 1.0)

    def test_softmax_stable_for_large_logits(self):
        p = softmax(np.array([[1e4, 0.0]]))
        assert np.isfinite(p).all()

    def test_log_softmax_matches_log_of_softmax(self):
        x = RNG.normal(size=(3, 5))
        assert np.allclose(log_softmax(x), np.log(softmax(x)))

    def test_im2col_col2im_adjoint(self):
        """col2im must be the exact adjoint of im2col: <Ax, y> == <x, A'y>."""
        x = RNG.normal(size=(2, 3, 6, 6))
        cols, oh, ow = F.im2col(x, 3, 3, 2, 1)
        y = RNG.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = F.col2im(y, x.shape, 3, 3, 2, 1)
        rhs = float((x * back).sum())
        assert lhs == pytest.approx(rhs, rel=1e-10)
