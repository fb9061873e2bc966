"""SmallVGG — plain convolution stack, the VGG11 stand-in.

No skip connections and a comparatively heavy dense head: the two properties
the paper uses to explain why VGG11 (a) pays the largest communication bill
(507 MB of mostly-dense weights) and (b) generalizes worse than ResNet under
partitioned semi-synchronous training (§IV-C).
"""

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


@MODELS.register("smallvgg")
class SmallVGG(SequentialModel):
    """Plain conv-pool stack with a wide fully connected head."""

    task = "classification"

    def __init__(
        self,
        in_channels: int = 3,
        n_classes: int = 100,
        base: int = 8,
        fc_width: int = 64,
        image_size: int = 16,
        rng: RngLike = None,
    ):
        super().__init__()
        self.n_classes = n_classes
        self.image_size = image_size
        self.in_channels = in_channels
        r = spawn_rngs(rng, 6)
        spatial = image_size // 4  # two 2x2 pools
        flat = 2 * base * spatial * spatial

        stem = Conv2d(in_channels, base, 3, padding=1, rng=r[0])
        conv3 = Conv2d(base, 2 * base, 3, padding=1, rng=r[2])
        # The gradient w.r.t. the input images is never consumed.
        stem.skip_input_grad = True
        # Each is followed by a ReLU alone, which runs in its accumulator.
        stem.fuse_relu = conv3.fuse_relu = True
        self.net = Sequential(
            stem,
            Conv2d(base, base, 3, padding=1, rng=r[1]),
            # maxpool(relu(x)) == relu(maxpool(x)) exactly (clipping at zero
            # commutes with max, and the gradients agree in every case,
            # including ties and all-negative windows); pooling first runs
            # ReLU on 4x fewer activations.
            MaxPool2d(2),
            ReLU(),
            conv3,
            Conv2d(2 * base, 2 * base, 3, padding=1, rng=r[3]),
            MaxPool2d(2),
            ReLU(),
            Flatten(),
            Linear(flat, fc_width, rng=r[4]),
            ReLU(),
            Dropout(0.3, rng=r[5]),
            Linear(fc_width, n_classes, rng=r[5]),
        )
        s1 = image_size * image_size
        s2 = (image_size // 2) ** 2
        conv_flops = 2 * 9 * (
            in_channels * base * s1
            + base * base * s1
            + base * 2 * base * s2
            + 2 * base * 2 * base * s2
        )
        fc_flops = 2 * (flat * fc_width + fc_width * n_classes)
        self.flops_per_sample = int(conv_flops + fc_flops)
