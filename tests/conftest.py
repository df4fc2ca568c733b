"""Shared fixtures for the Fork Path ORAM test suite."""

from __future__ import annotations

import os
import pickle
import random

import pytest

from repro.config import (
    CacheConfig,
    OramConfig,
    SchedulerConfig,
    SystemConfig,
    small_test_config,
)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xF0124)


@pytest.fixture
def hostile_pickle(tmp_path):
    """``(payload, flag)``: unpickling ``payload`` creates the directory
    ``flag`` — a stand-in for the arbitrary code a hostile pickle runs."""
    flag = tmp_path / "unpickled"

    class Hostile:
        def __reduce__(self):
            return (os.mkdir, (str(flag),))

    return pickle.dumps(Hostile()), flag


@pytest.fixture
def small_oram() -> OramConfig:
    """A 6-level tree: big enough for interesting paths, tiny to run."""
    return small_test_config(6)


@pytest.fixture
def fork_system() -> SystemConfig:
    """A small Fork Path system with scheduling and no data cache."""
    return SystemConfig(
        oram=small_test_config(8),
        scheduler=SchedulerConfig(label_queue_size=8),
        cache=CacheConfig(policy="none"),
    )


@pytest.fixture
def traditional_system() -> SystemConfig:
    """The same system configured as traditional (baseline) Path ORAM."""
    return SystemConfig(
        oram=small_test_config(8),
        scheduler=SchedulerConfig(
            label_queue_size=1,
            enable_merging=False,
            enable_scheduling=False,
            enable_dummy_replacing=False,
        ),
        cache=CacheConfig(policy="none"),
    )
