"""SmallAlexNet — shallow conv net with dropout head, the AlexNet stand-in."""

from __future__ import annotations

from repro.nn.layers import (
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.models.registry import MODELS, SequentialModel
from repro.utils.rng import RngLike, spawn_rngs


@MODELS.register("smallalexnet")
class SmallAlexNet(SequentialModel):
    """Few wide conv layers then a dropout-regularized dense classifier.

    The paper trains AlexNet with Adam and a fixed learning rate on
    ImageNet-1K; the experiments harness mirrors that pairing with the
    imagenet-like synthetic dataset.
    """

    task = "classification"

    def __init__(
        self,
        in_channels: int = 3,
        n_classes: int = 20,
        base: int = 12,
        fc_width: int = 96,
        image_size: int = 16,
        rng: RngLike = None,
    ):
        super().__init__()
        self.n_classes = n_classes
        self.image_size = image_size
        self.in_channels = in_channels
        r = spawn_rngs(rng, 5)
        spatial = image_size // 4
        flat = 2 * base * spatial * spatial
        stem = Conv2d(in_channels, base, 5, padding=2, rng=r[0])
        conv2 = Conv2d(base, 2 * base, 3, padding=1, rng=r[1])
        # The gradient w.r.t. the input images is never consumed.
        stem.skip_input_grad = True
        # Each is followed by a ReLU alone, which runs in its accumulator.
        stem.fuse_relu = conv2.fuse_relu = True
        self.net = Sequential(
            stem,
            MaxPool2d(2),
            conv2,
            MaxPool2d(2),
            Flatten(),
            Linear(flat, fc_width, rng=r[2]),
            ReLU(),
            Dropout(0.5, rng=r[3]),
            Linear(fc_width, n_classes, rng=r[4]),
        )
        s1 = image_size * image_size
        s2 = (image_size // 2) ** 2
        conv_flops = 2 * (
            25 * in_channels * base * s1 + 9 * base * 2 * base * s2
        )
        fc_flops = 2 * (flat * fc_width + fc_width * n_classes)
        self.flops_per_sample = int(conv_flops + fc_flops)
