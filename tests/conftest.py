from contextlib import contextmanager
from unittest import mock

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


@pytest.fixture
def tiny_bn_model(tiny_model, rng):
    """``tiny_model`` with non-trivial BN statistics, so BN inference does real work."""
    model = tiny_model.copy()
    for layer in model.layers[:-1]:
        layer.bn.running_mean[:] = rng.normal(size=layer.bn.channels)
        layer.bn.running_var[:] = rng.uniform(0.2, 2.0, size=layer.bn.channels)
        layer.bn.scale[:] = rng.normal(1.0, 0.4, size=layer.bn.channels)
        layer.bn.shift[:] = rng.normal(size=layer.bn.channels)
    return model


@contextmanager
def blas_count(n):
    """The process's BLAS thread count set to ``n`` for the block, then restored.

    A DFP forward or a training step inside runs its conv blocks on ``n``
    workers.  Without OpenBLAS thread control the count stays as it is.
    """
    blas = tensor._openblas()
    if blas is None:
        yield
        return
    before = blas.get()
    blas.set(n)
    try:
        yield
    finally:
        blas.set(before)


@contextmanager
def without_dgemm(disabled=True):
    """With ``disabled``, the block's GEMMs run on ``np.matmul`` as with a BLAS lacking
    ``dgemm``; the thread control stays."""
    blas = tensor._openblas()
    if not disabled or blas is None:
        yield
        return
    with mock.patch.object(tensor, "_openblas", lambda: blas._replace(dgemm=None)):
        yield
