import multiprocessing
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


def twin_channelset(rng, n=2):
    """Two identical users, their one channel drawn as `rand_channelset`
    draws a single user's."""
    g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    m = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
    h = (rng.standard_normal() + 1j * rng.standard_normal()) / np.sqrt(2)
    return ChannelSet(g=g, m=np.vstack([m, m]), h=np.array([h, h]), sigma2=np.ones(2))


def phase_grid(n, levels, offset=0.0):
    """All unit-modulus vectors with entries on a uniform phase grid, (L^n, n)."""
    thetas = offset + 2.0 * np.pi * np.arange(levels) / levels
    grids = np.meshgrid(*([thetas] * n), indexing="ij")
    return np.exp(1j * np.stack([t.reshape(-1) for t in grids], axis=-1))


def counting_forks(monkeypatch):
    """The os.fork calls made from now on, as a list of the pids they returned here."""
    forks, real_fork = [], os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def no_leftover_processes():
    """Fail a test that leaves a multiprocessing child alive; the children are
    stopped first, so that the next test starts without them."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(timeout=10)
    assert not left, f"processes left alive: {left}"
