"""Additional attention-layer semantics beyond gradcheck."""

import numpy as np
import pytest

from repro.nn.layers import MultiHeadSelfAttention

RNG = np.random.default_rng(0)


class TestAttentionSemantics:
    def test_probs_rows_are_distributions(self):
        attn = MultiHeadSelfAttention(8, 2, causal=True, rng=0)
        attn.forward(RNG.normal(size=(1, 5, 8)))
        _, _, _, probs = attn._saved
        assert np.allclose(probs.sum(axis=-1), 1.0)
        # Causal: the mask zeroes strictly-upper-triangular probabilities.
        t = probs.shape[-1]
        upper = np.triu(np.ones((t, t), dtype=bool), k=1)
        assert np.allclose(probs[..., upper], 0.0)

    def test_first_token_attends_only_to_itself(self):
        attn = MultiHeadSelfAttention(8, 2, causal=True, rng=0)
        attn.forward(RNG.normal(size=(2, 4, 8)))
        _, _, _, probs = attn._saved
        assert np.allclose(probs[:, :, 0, 0], 1.0)

    def test_permutation_equivariance_noncausal(self):
        """Without a mask, permuting the sequence permutes the output."""
        attn = MultiHeadSelfAttention(8, 2, causal=False, rng=0)
        x = RNG.normal(size=(1, 5, 8))
        perm = np.array([3, 0, 4, 1, 2])
        out = attn.forward(x).copy()  # the next forward reuses the buffer
        out_perm = attn.forward(x[:, perm])
        assert np.allclose(out[:, perm], out_perm, atol=1e-10)

    def test_head_count_changes_function(self):
        x = RNG.normal(size=(1, 4, 8))
        a1 = MultiHeadSelfAttention(8, 1, rng=0).forward(x)
        a4 = MultiHeadSelfAttention(8, 4, rng=0).forward(x)
        assert not np.allclose(a1, a4)

    def test_batch_independence(self):
        """Samples in a batch must not attend across each other."""
        attn = MultiHeadSelfAttention(8, 2, causal=True, rng=0)
        a = RNG.normal(size=(1, 4, 8))
        b = RNG.normal(size=(1, 4, 8))
        joint = attn.forward(np.concatenate([a, b]))
        solo = attn.forward(a)
        assert np.allclose(joint[0], solo[0], atol=1e-12)

    def test_input_shape_validation(self):
        attn = MultiHeadSelfAttention(8, 2, rng=0)
        with pytest.raises(ValueError):
            attn.forward(RNG.normal(size=(4, 8)))
        with pytest.raises(ValueError):
            attn.forward(RNG.normal(size=(1, 4, 7)))
