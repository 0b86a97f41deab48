import os

import numpy as np
import pytest

from irssec.channel import ChannelSet


def pytest_configure(config):
    """Child processes (the console entry point test) import the package from
    src/ too, as the `pythonpath` setting in pyproject.toml does in-process."""
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)


def rand_channelset(rng, n=2, k=2, sigma2=None):
    """Order-one desk instance; user 0 is the confidential user."""
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))) / np.sqrt(2)
    h = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) / np.sqrt(2)
    if sigma2 is None:
        sigma2 = np.ones(k)
    return ChannelSet(g=g, m=m, h=h, sigma2=np.asarray(sigma2, dtype=float))


def phase_grid(n, levels, offset=0.0):
    """All unit-modulus vectors with entries on a uniform phase grid, (L^n, n)."""
    thetas = offset + 2.0 * np.pi * np.arange(levels) / levels
    grids = np.meshgrid(*([thetas] * n), indexing="ij")
    return np.exp(1j * np.stack([t.reshape(-1) for t in grids], axis=-1))


@pytest.fixture
def rng():
    return np.random.default_rng(0)
