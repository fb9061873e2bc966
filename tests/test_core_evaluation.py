"""Tests for evaluation callbacks."""

import numpy as np
import pytest

from repro.core.evaluation import accuracy_eval, perplexity_eval
from repro.data import ArrayDataset, SequenceDataset
from repro.nn.models import build_model


class FixedLogitModel:
    """Stub model that returns canned logits per input row."""

    def __init__(self, logits):
        self.logits = logits
        self.training = False

    def forward(self, x):
        idx = x[:, 0].astype(int)
        return self.logits[idx]


class TestAccuracyEval:
    def test_top1_exact(self):
        logits = np.array([
            [10.0, 0.0, 0.0],  # predicts 0
            [0.0, 10.0, 0.0],  # predicts 1
            [0.0, 10.0, 0.0],  # predicts 1 (wrong, label 2)
        ])
        ds = ArrayDataset(np.arange(3.0).reshape(3, 1), np.array([0, 1, 2]))
        fn = accuracy_eval(ds)
        assert fn(FixedLogitModel(logits)) == pytest.approx(2 / 3)

    def test_top5_counts_near_misses(self):
        logits = np.zeros((2, 10))
        logits[0, :5] = [5, 4, 3, 2, 1]   # label 4 in top-5
        logits[1, 5:] = [5, 4, 3, 2, 1]   # label 0 not in top-5
        ds = ArrayDataset(np.arange(2.0).reshape(2, 1), np.array([4, 0]))
        assert accuracy_eval(ds, top_k=5)(FixedLogitModel(logits)) == 0.5

    def test_batched_equals_unbatched(self):
        rng = np.random.default_rng(0)
        ds = ArrayDataset(rng.normal(size=(50, 8)), rng.integers(0, 3, 50))
        model = build_model("mlp", in_features=8, n_classes=3, rng=0)
        a = accuracy_eval(ds, batch_size=7)(model)
        b = accuracy_eval(ds, batch_size=50)(model)
        assert a == b

    @pytest.mark.parametrize("workload", ["vgg_cifar100", "alexnet_imagenet"])
    def test_chunk_size_does_not_move_a_trained_models_accuracy(self, workload):
        """``Workload.make_eval`` evaluates in training-sized chunks; top-k
        is argmax-only, so the float is the one a 256-chunk pass returns."""
        from repro.experiments.runner import MethodSpec, run_method
        from repro.experiments.workloads import get_workload

        built = get_workload(workload).build(
            n_workers=2, n_steps=8, data_scale=0.1, batch_size=32,
            cluster_kwargs={"executor": "serial"},
        )
        res = run_method(MethodSpec("bsp", {}), built, n_steps=8, eval_every=8)
        model = built.workers[0].model.eval()
        top_k = 5 if workload == "alexnet_imagenet" else 1
        small, big = (
            accuracy_eval(built.test, batch_size=b, top_k=top_k)(model)
            for b in (32, 256)
        )
        assert small == big == res.log.evals[-1].metric

    def test_chunk_size_does_not_move_a_trained_mlps_accuracy(
        self, mlp_cluster, quick_cfg, blobs_data
    ):
        from repro.core import BSPTrainer

        workers, cluster = mlp_cluster
        BSPTrainer(workers, cluster).run(quick_cfg)
        model = workers[0].model.eval()
        small, big = (
            accuracy_eval(blobs_data[1], batch_size=b)(model) for b in (32, 256)
        )
        assert small == big

    @pytest.mark.parametrize("n, want", [(50, [16] * 4), (10, [10])])
    def test_a_ragged_last_chunk_runs_at_the_batch_size(self, n, want):
        """The last chunk is padded with rows already scored, so every
        forward sees ``batch_size`` rows (when the dataset has that many),
        and only the new rows count."""
        rng = np.random.default_rng(0)
        logits, labels = rng.normal(size=(n, 3)), rng.integers(0, 3, n)
        sizes = []

        class Recording(FixedLogitModel):
            def forward(self, x):
                sizes.append(len(x))
                return super().forward(x)

        ds = ArrayDataset(np.arange(float(n)).reshape(n, 1), labels)
        acc = accuracy_eval(ds, batch_size=16)(Recording(logits))
        assert sizes == want
        assert acc == int((logits.argmax(axis=-1) == labels).sum()) / n

    def test_top_k_validation(self):
        ds = ArrayDataset(np.zeros((2, 1)), np.zeros(2, dtype=int))
        with pytest.raises(ValueError):
            accuracy_eval(ds, top_k=0)


class TestPerplexityEval:
    def test_uniform_model_gives_vocab_size(self):
        """A model with uniform logits has perplexity = |V|."""

        class Uniform:
            training = False

            def forward(self, x):
                return np.zeros((*x.shape, 16))

        ds = SequenceDataset(np.random.default_rng(0).integers(0, 16, 200), bptt=8)
        ppl = perplexity_eval(ds)(Uniform())
        assert ppl == pytest.approx(16.0)

    def test_trained_lm_beats_uniform(self):
        from repro.data import build_dataset
        from repro.nn.losses import CrossEntropyLoss
        from repro.optim import SGD

        train, test = build_dataset(
            "wikitext_like", n_train_tokens=5000, n_test_tokens=1000,
            vocab_size=16, bptt=8, rng=0,
        )
        m = build_model(
            "tinytransformer", vocab_size=16, dim=16, max_len=8,
            n_layers=1, dropout=0.0, rng=0,
        )
        opt = SGD(m, lr=0.5)
        rng = np.random.default_rng(1)
        for _ in range(80):
            idx = rng.integers(0, len(train), 16)
            x, y = train.get_batch(idx)
            m.zero_grad()
            loss = CrossEntropyLoss()
            loss.forward(m.forward(x), y)
            m.backward(loss.backward())
            opt.step()
        m.eval()
        assert perplexity_eval(test)(m) < 16.0

    @pytest.mark.parametrize("batch_size", [20, 7, 64])
    def test_chunk_size_does_not_move_the_perplexity_bits(self, batch_size):
        """Forwards run at the training batch, a ragged tail padded with
        sequences already scored, but the NLL is still summed in groups of
        64 sequences: the float is the one the 64-chunk loop returned."""
        from repro.data import build_dataset
        from tests.test_nn_fastpath_differential import log_softmax

        _, test = build_dataset(
            "wikitext_like", n_train_tokens=2000, n_test_tokens=8000,
            vocab_size=64, bptt=16, rng=0,
        )
        assert len(test) % 64 and len(test) % batch_size  # a ragged tail
        model = build_model("tinytransformer", vocab_size=64, max_len=16, rng=0).eval()

        # The 64-chunk loop perplexity_eval ran before it took a batch size.
        total_nll, total_tokens = 0.0, 0
        for start in range(0, len(test), 64):
            x, y = test.get_batch(np.arange(start, min(start + 64, len(test))))
            logits = model.forward(x)
            logp = log_softmax(logits.reshape(-1, logits.shape[-1]))
            flat_y = y.reshape(-1)
            total_nll += float(-logp[np.arange(flat_y.size), flat_y].sum())
            total_tokens += flat_y.size
        want = float(np.exp(total_nll / total_tokens))

        assert perplexity_eval(test, batch_size=batch_size)(model) == want
