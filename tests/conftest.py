import random
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from cnnlf import dfp, tensor
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


@contextmanager
def schedule_shaker(seed, longest=0.02):
    """Every block run by ``tensor._on_workers`` may sleep before and after its work.

    One block in ten sleeps ``longest`` seconds before its work and one in
    ten a tenth of that after it, drawn from a generator seeded by ``seed``
    and the block's index, so the same blocks are slowed in every run.  While
    one block sleeps long the other workers run far ahead, so blocks finish
    in orders an unshaken run rarely shows.
    """
    on_workers = tensor._on_workers

    def shaken(blocks, scratch, work, after=None):
        def run(i, buffers):
            pause = random.Random(f"{seed}:{i}")
            time.sleep(pause.choice((0.0,) * 9 + (longest,)))
            work(i, buffers)
            time.sleep(pause.choice((0.0,) * 9 + (longest / 10,)))

        on_workers(blocks, scratch, run, after)

    with mock.patch.object(tensor, "_on_workers", shaken), \
            mock.patch.object(dfp, "_on_workers", shaken):
        yield


def damaged(good: bytes, trials: int, seed: int = 0):
    """``trials`` seeded damaged copies of ``good``: in turn cut short at a random byte,
    with one random bit flipped, and with 1-8 random bytes inserted at a random byte."""
    rng = np.random.default_rng(seed)
    for trial in range(trials):
        data = bytearray(good)
        kind, at = trial % 3, int(rng.integers(0, len(data)))
        if kind == 0:
            del data[at:]
        elif kind == 1:
            data[at] ^= 1 << int(rng.integers(0, 8))
        else:
            data[at:at] = rng.bytes(int(rng.integers(1, 9)))
        yield bytes(data)
