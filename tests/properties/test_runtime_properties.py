"""Property-based tests: the serving runtime's decode against the original
weights.

``tests/serve/test_runtime.py`` pins :class:`ModelRuntime` to the full
:class:`DeepSZDecoder`; these properties pin it to what went *in*: random
pruned layers, encoded at random per-layer bounds (v1 and chunked v2 data
payloads), written as a ``.dsz`` archive and decoded lazily — dense and
sparse.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.encoder import DeepSZEncoder
from repro.pruning.sparse_format import encode_sparse, sparse_positions
from repro.serve import ModelRuntime
from repro.store import archive_bytes

_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _bound_tolerance(weights, eb):
    """Bound + half-ULP slack (same convention as test_codec_properties)."""
    scale = float(np.max(np.abs(weights))) if weights.size else 0.0
    return eb * (1 + 1e-5) + np.finfo(np.float32).eps * scale


@st.composite
def pruned_layers(draw):
    """1-3 pruned fc-layers with independent shapes, densities and bounds.

    Low densities leave gaps wider than 255, so the two-array format's
    padding entries are exercised too.
    """
    layers, bounds = {}, {}
    for i in range(draw(st.integers(min_value=1, max_value=3))):
        rows = draw(st.integers(min_value=1, max_value=24))
        cols = draw(st.integers(min_value=1, max_value=600))
        density = draw(st.sampled_from([0.0, 0.002, 0.05, 0.3, 1.0]))
        scale = draw(st.sampled_from([1e-2, 0.1, 1.0]))
        seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
        rng = np.random.default_rng(seed)
        weights = (rng.standard_normal((rows, cols)) * scale).astype(np.float32)
        weights[rng.random((rows, cols)) >= density] = 0.0
        name = f"fc{i}"
        layers[name] = weights
        bounds[name] = draw(st.sampled_from([1e-4, 1e-3, 1e-2, 1e-1]))
    return layers, bounds


def _check_runtime_decode(layers, bounds, chunk_size):
    sparse_layers = {name: encode_sparse(w) for name, w in layers.items()}
    model = DeepSZEncoder(chunk_size=chunk_size).encode("net", sparse_layers, bounds)
    blob = archive_bytes(model)
    with ModelRuntime(blob) as dense_rt, ModelRuntime(blob, sparse=True) as sparse_rt:
        for name, original in layers.items():
            decoded = dense_rt.layer(name)
            assert decoded.shape == original.shape
            # Every weight within its layer's bound of the original.  This
            # covers the format's padding entries too: they store 0.0, so
            # their (lossy) reconstruction stays within the bound of 0.
            error = np.abs(decoded.astype(np.float64) - original)
            assert float(error.max(initial=0.0)) <= _bound_tolerance(original, bounds[name])
            # A pruned position with no stored entry decodes to exactly 0.
            stored = np.zeros(original.size, dtype=bool)
            stored[sparse_positions(sparse_layers[name])] = True
            unstored = ~stored.reshape(original.shape)
            assert np.all(decoded[unstored] == 0.0)
            # The compressed-domain operand is the same matrix.
            np.testing.assert_array_equal(sparse_rt.layer(name).matrix.toarray(), decoded)


@_settings
@given(case=pruned_layers())
def test_runtime_decode_within_bound_v1(case):
    layers, bounds = case
    _check_runtime_decode(layers, bounds, chunk_size=None)


@_settings
@given(case=pruned_layers(), chunk_size=st.integers(min_value=1, max_value=300))
def test_runtime_decode_within_bound_chunked_v2(case, chunk_size):
    layers, bounds = case
    _check_runtime_decode(layers, bounds, chunk_size=chunk_size)
