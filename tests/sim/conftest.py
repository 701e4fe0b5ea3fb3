"""Shared fixtures for the workload-simulation tests.

One tiny chained archive (session-scoped: encoding is the slow part) and
small helper factories keep each driver/matrix test in the tens of
milliseconds even though it boots a real gateway.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.store import archive_input_dim

#: Chained MLP small enough that add_model + start is milliseconds.
TINY_SPEC = "fc6=24x32:0.2,fc7=12x24:0.2"


@pytest.fixture(scope="session")
def tiny_archive() -> bytes:
    from repro.cli import synthetic_sparse_layers
    from repro.core.encoder import DeepSZEncoder
    from repro.store import archive_bytes

    layers = synthetic_sparse_layers(TINY_SPEC, seed=11)
    model = DeepSZEncoder().encode("sim-tiny", layers, {n: 1e-3 for n in layers})
    return archive_bytes(model)


@pytest.fixture(scope="session")
def tiny_input(tiny_archive) -> np.ndarray:
    rng = np.random.default_rng(5)
    return rng.standard_normal(archive_input_dim(tiny_archive)).astype(np.float32)
