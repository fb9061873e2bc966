"""Tests for the Accordion-style adaptive compressor."""

import numpy as np
import pytest

from repro.core.compression import AccordionCompressor, build_compressor

RNG = np.random.default_rng(0)


class TestRegimeSwitching:
    def test_stable_norms_use_low_ratio(self):
        """With constant gradient norms, Δ≈0 after the first step — the
        compressor must settle to the low (aggressive) ratio."""
        c = AccordionCompressor(
            low_ratio=0.01, high_ratio=0.5, delta=0.1, error_feedback=False,
            ewma_alpha=1.0, ewma_window=1,
        )
        g = RNG.normal(size=1000)
        msgs = [c.compress(g) for _ in range(10)]
        # First message: Δ=inf → critical → high ratio (500 kept).
        assert msgs[0].nbytes == 8 * 500
        # Later messages: stable → low ratio (10 kept).
        assert msgs[-1].nbytes == 8 * 10

    def test_norm_spike_triggers_high_ratio(self):
        c = AccordionCompressor(
            low_ratio=0.01, high_ratio=0.5, delta=0.1, error_feedback=False,
            ewma_alpha=1.0, ewma_window=1,
        )
        g = RNG.normal(size=1000)
        for _ in range(5):
            c.compress(g)
        spike = c.compress(10.0 * g)  # 100x squared-norm jump
        assert spike.nbytes == 8 * 500

    def test_roundtrip_support(self):
        c = AccordionCompressor(error_feedback=False)
        g = RNG.normal(size=200)
        out = c.decompress(c.compress(g))
        support = np.flatnonzero(out)
        assert np.allclose(out[support], g[support])

    def test_registered(self):
        assert isinstance(build_compressor("accordion"), AccordionCompressor)

    def test_validation(self):
        with pytest.raises(ValueError):
            AccordionCompressor(low_ratio=0.5, high_ratio=0.1)
        with pytest.raises(ValueError):
            AccordionCompressor(delta=-1.0)

    def test_error_feedback_composes(self):
        """EF from the base class must work with regime switching."""
        c = AccordionCompressor(
            low_ratio=0.05, high_ratio=0.5, delta=0.1, error_feedback=True,
        )
        g = RNG.normal(size=100)
        total = np.zeros_like(g)
        for _ in range(40):
            total += c.decompress(c.compress(g))
        assert np.allclose(total / 40, g, atol=0.35)

    def test_clone_has_independent_tracker(self):
        c = AccordionCompressor()
        g = RNG.normal(size=64)
        c.compress(g)
        clone = c.clone()
        assert clone.n_total == c.n_total  # deep copy carries state...
        c.compress(g)
        assert clone.n_total != c.n_total  # ...but evolves independently


class TestEndToEndTraining:
    def test_bsp_with_accordion_learns(self):
        from repro.core import BSPTrainer, TrainConfig
        from repro.core.evaluation import accuracy_eval
        from repro.data import build_dataset
        from tests.conftest import make_mlp_cluster

        train, test = build_dataset(
            "blobs", n_train=256, n_test=64, n_features=16, n_classes=4, rng=0
        )
        workers, cluster = make_mlp_cluster(train)
        trainer = BSPTrainer(
            workers, cluster,
            compressor=AccordionCompressor(low_ratio=0.05, high_ratio=0.5, delta=0.05),
        )
        cfg = TrainConfig(n_steps=60, eval_every=30, eval_fn=accuracy_eval(test))
        res = trainer.run(cfg)
        assert res.final_metric > 0.7
