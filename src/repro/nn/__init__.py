"""Numpy neural-network substrate.

Layer-wise forward/backward modules (gradient-checked against finite
differences in the test suite), losses, initializers and a model zoo of
downscaled analogs of the paper's four DNN families.
"""

from repro.nn.module import Module, no_grad
from repro.nn.parameter import Parameter
from repro.nn import functional, init
from repro.nn.losses import CrossEntropyLoss, MSELoss, perplexity
from repro.nn import layers
from repro.nn import models

__all__ = [
    "Module",
    "no_grad",
    "Parameter",
    "functional",
    "init",
    "layers",
    "models",
    "CrossEntropyLoss",
    "MSELoss",
    "perplexity",
]
