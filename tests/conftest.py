from contextlib import contextmanager

import numpy as np
import pytest

from cnnlf import tensor
from cnnlf.network import NetworkConfig, build_cnnf


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def tiny_config():
    return NetworkConfig(num_conv_layers=3, base_filters=8, per_layer_filters=(6, 5))


@pytest.fixture
def tiny_model(tiny_config):
    # nonzero output head so every path carries signal in tests
    return build_cnnf(tiny_config, rng_seed=77, zero_init_output=False)


@contextmanager
def blas_count(n):
    """The process's BLAS thread count set to ``n`` for the block, then restored.

    A DFP forward or a training step inside runs its conv blocks on ``n``
    workers.  Without OpenBLAS thread control the count stays as it is.
    """
    controls = tensor._openblas_controls()
    if controls is None:
        yield
        return
    get, put = controls
    before = get()
    put(n)
    try:
        yield
    finally:
        put(before)
