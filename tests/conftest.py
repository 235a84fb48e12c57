"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import stat

import numpy as np
import pytest

from repro.core.dataset import DescriptorCollection
from repro.experiments.config import TEST_SCALE
from repro.experiments.data import prepare
from repro.workloads.synthetic import SyntheticImageConfig, generate_collection


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def fail_directory_fsync(monkeypatch):
    """Install an ``os.fsync`` that raises ``OSError(code)`` on directory
    handles and syncs regular files as usual; returns the installer."""
    real_fsync = os.fsync

    def install(code: int) -> None:
        def fsync(fd: int) -> None:
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError(code, os.strerror(code))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)

    return install


@pytest.fixture()
def tiny_collection() -> DescriptorCollection:
    """A deterministic 3-cluster, 60-descriptor collection in 4-d."""
    rng = np.random.default_rng(5)
    centers = np.array(
        [[0.0, 0.0, 0.0, 0.0], [5.0, 5.0, 5.0, 5.0], [10.0, 0.0, 10.0, 0.0]]
    )
    parts = [
        centers[c] + 0.2 * rng.standard_normal((20, 4)) for c in range(3)
    ]
    vectors = np.vstack(parts).astype(np.float32)
    return DescriptorCollection.from_vectors(vectors)


@pytest.fixture(scope="session")
def small_synthetic() -> DescriptorCollection:
    """A ~1.5k-descriptor 24-d synthetic collection (session cached)."""
    config = SyntheticImageConfig(
        n_images=32,
        mean_descriptors_per_image=48,
        n_patterns=40,
        patterns_per_image=4,
        seed=11,
    )
    return generate_collection(config)


@pytest.fixture(scope="session")
def experiment_data():
    """Fully prepared TEST_SCALE experiment data (built once per session)."""
    return prepare(TEST_SCALE)
