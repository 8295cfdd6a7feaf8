"""Shared fixtures for the benchmark/experiment harness.

Every benchmark regenerates one of the paper's experiments.  Scenario
construction (data generation + model training + scorer fitting) is
session-scoped so that the timed portion of each benchmark is the experiment
itself, and the whole suite stays affordable on a laptop.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.evaluation import make_clusters_scenario, make_glyph_scenario


@pytest.fixture(scope="session")
def clusters_scenario():
    """Headline low-dimensional scenario (exact ground-truth OP)."""
    return make_clusters_scenario(rng=2021)


@pytest.fixture(scope="session")
def small_glyph_scenario():
    """Reduced image-like scenario, sized so the whole suite stays fast."""
    return make_glyph_scenario(num_samples=800, image_size=10, num_classes=6, epochs=15, rng=2021)


def single_run(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)
