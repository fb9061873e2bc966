"""SmallResNet — skip-connection CNN, the ResNet101 stand-in."""

from __future__ import annotations

from repro.nn.layers import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Linear,
    ReLU,
    Residual,
    Sequential,
)
from repro.nn.models.registry import MODELS, SequentialModel
from repro.utils.rng import RngLike, spawn_rngs


def _basic_block(channels: int, rng) -> Residual:
    """Two 3x3 convs with batch norm inside an identity skip connection."""
    r1, r2 = spawn_rngs(rng, 2)
    body = Sequential(
        Conv2d(channels, channels, 3, padding=1, bias=False, rng=r1),
        BatchNorm2d(channels),
        ReLU(),
        Conv2d(channels, channels, 3, padding=1, bias=False, rng=r2),
        BatchNorm2d(channels),
    )
    return Residual(body)


def _down_block(in_ch: int, out_ch: int, rng) -> Residual:
    """Stride-2 block; skip path uses a 1x1 stride-2 projection."""
    r1, r2, r3 = spawn_rngs(rng, 3)
    body = Sequential(
        Conv2d(in_ch, out_ch, 3, stride=2, padding=1, bias=False, rng=r1),
        BatchNorm2d(out_ch),
        ReLU(),
        Conv2d(out_ch, out_ch, 3, padding=1, bias=False, rng=r2),
        BatchNorm2d(out_ch),
    )
    proj = Sequential(
        Conv2d(in_ch, out_ch, 1, stride=2, bias=False, rng=r3),
        BatchNorm2d(out_ch),
    )
    return Residual(body, proj)


@MODELS.register("smallresnet")
class SmallResNet(SequentialModel):
    """Residual CNN for ``(N, C, H, W)`` images.

    Default geometry: stem to ``base`` channels, ``n_blocks`` identity blocks,
    one stride-2 downsample doubling channels, ``n_blocks`` more identity
    blocks, global average pooling, linear head. Depth scales with
    ``n_blocks`` the way ResNet variants scale with layer count.
    """

    task = "classification"

    def __init__(
        self,
        in_channels: int = 3,
        n_classes: int = 10,
        base: int = 8,
        n_blocks: int = 2,
        image_size: int = 16,
        rng: RngLike = None,
    ):
        super().__init__()
        self.n_classes = n_classes
        self.image_size = image_size
        self.in_channels = in_channels
        rngs = spawn_rngs(rng, 2 * n_blocks + 3)
        stem = Conv2d(in_channels, base, 3, padding=1, bias=False, rng=rngs[0])
        # The gradient w.r.t. the input images is never consumed.
        stem.skip_input_grad = True
        layers = [stem, BatchNorm2d(base), ReLU()]
        for i in range(n_blocks):
            layers += [_basic_block(base, rngs[1 + i]), ReLU()]
        layers += [_down_block(base, 2 * base, rngs[1 + n_blocks]), ReLU()]
        for i in range(n_blocks):
            layers += [_basic_block(2 * base, rngs[2 + n_blocks + i]), ReLU()]
        layers += [GlobalAvgPool2d(), Linear(2 * base, n_classes, rng=rngs[-1])]
        self.net = Sequential(*layers)
        # Conv FLOPs: 2 * Cout*Cin*k^2 * OH*OW per sample; stage 1 at full
        # resolution, stage 2 at half. An estimate is all the compute model
        # needs (relative magnitudes across model families).
        s1 = image_size * image_size
        s2 = (image_size // 2) ** 2
        conv_flops = 2 * 9 * (
            in_channels * base * s1
            + n_blocks * 2 * base * base * s1
            + base * 2 * base * s2
            + (2 * base) * (2 * base) * s2
            + n_blocks * 2 * (2 * base) * (2 * base) * s2
        )
        self.flops_per_sample = int(conv_flops + 2 * 2 * base * n_classes)
