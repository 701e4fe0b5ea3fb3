"""Tests for the on-demand :class:`ModelRuntime`."""

import threading

import numpy as np
import pytest

from repro.core.decoder import DeepSZDecoder
from repro.serve import ModelRuntime
from repro.store import ModelArchive, archive_bytes, write_archive
from repro.utils.errors import DecompressionError, ValidationError


@pytest.fixture(scope="module")
def blob(small_compressed_model):
    return archive_bytes(small_compressed_model)


@pytest.fixture(scope="module")
def reference_weights(small_compressed_model):
    return DeepSZDecoder().decode(small_compressed_model).weights


class TestOnDemandDecode:
    @pytest.mark.parametrize("sparse", [False, True], ids=["dense", "sparse"])
    def test_layer_matches_full_decode(self, blob, sparse):
        reference = DeepSZDecoder().decode(blob, sparse=sparse).weights
        with ModelRuntime(blob, sparse=sparse) as runtime:
            for name, expected in reference.items():
                got = runtime.layer(name)
                if sparse:
                    for part in ("data", "indices", "indptr"):
                        np.testing.assert_array_equal(
                            getattr(got.matrix, part), getattr(expected.matrix, part)
                        )
                else:
                    np.testing.assert_array_equal(got, expected)

    def test_lazy_decoding_touches_only_requested_layer(self, blob, reference_weights):
        with ModelRuntime(blob) as runtime:
            runtime.layer("fc7")
            stats = runtime.stats()
            assert stats.decodes == 1
            assert list(stats.decode_seconds) == ["fc7"]

    def test_second_access_is_a_cache_hit(self, blob):
        with ModelRuntime(blob) as runtime:
            first = runtime.layer("fc6")
            second = runtime.layer("fc6")
            assert first is second  # the cached object itself
            stats = runtime.stats()
            assert stats.decodes == 1
            assert stats.cache.hits == 1
            assert stats.cache.misses == 1

    def test_cached_arrays_are_read_only(self, blob):
        with ModelRuntime(blob) as runtime:
            array = runtime.layer("fc6")
            with pytest.raises(ValueError):
                array[0, 0] = 1.0

    def test_sources(self, small_compressed_model, blob, tmp_path, reference_weights):
        path = tmp_path / "model.dsz"
        write_archive(small_compressed_model, path)
        for source in (
            blob,
            str(path),
            path,
            ModelArchive.from_bytes(blob),
            small_compressed_model,
        ):
            with ModelRuntime(source) as runtime:
                np.testing.assert_array_equal(
                    runtime.layer("fc8"), reference_weights["fc8"]
                )
        with pytest.raises(ValidationError):
            ModelRuntime(12345)

    def test_v1_blob_source(self, v1_crc_blob, reference_weights):
        with ModelRuntime(v1_crc_blob) as runtime:
            assert runtime.archive.version == 1
            np.testing.assert_array_equal(
                runtime.layer("fc6"), reference_weights["fc6"]
            )

    def test_unknown_layer(self, blob):
        with ModelRuntime(blob) as runtime:
            with pytest.raises(ValidationError, match="no layer"):
                runtime.layer("nope")
            with pytest.raises(ValidationError, match="no layer"):
                runtime.prefetch(["nope"])

    def test_corrupt_segment_raises_on_access(self, blob):
        manifest = ModelArchive.from_bytes(blob).manifest
        seg = manifest.layers["fc6"].segments["sz"]
        corrupted = bytearray(blob)
        corrupted[seg.offset] ^= 0xFF
        with ModelRuntime(bytes(corrupted)) as runtime:
            with pytest.raises(DecompressionError, match="CRC32"):
                runtime.layer("fc6")
            # Sibling layers stay servable.
            assert runtime.layer("fc7") is not None


class TestPrefetchAndCache:
    def test_prefetch_all(self, blob, reference_weights):
        with ModelRuntime(blob) as runtime:
            names = runtime.prefetch(workers=4)
            assert set(names) == set(reference_weights)
            stats = runtime.stats()
            assert stats.decodes == len(reference_weights)
            # Every subsequent access is a hit.
            for name in names:
                runtime.layer(name)
            assert runtime.stats().cache.hits >= len(names)

    def test_tiny_cache_still_serves_with_evictions(self, blob, reference_weights):
        sizes = {n: a.nbytes for n, a in reference_weights.items()}
        budget = max(sizes.values()) + 1  # holds exactly one decoded layer
        with ModelRuntime(blob, cache_bytes=budget) as runtime:
            for _ in range(3):
                for name, expected in reference_weights.items():
                    np.testing.assert_array_equal(runtime.layer(name), expected)
            stats = runtime.stats()
            assert stats.cache.evictions > 0
            assert stats.decodes > len(reference_weights)

    def test_concurrent_access_hammering(self, blob, reference_weights):
        names = list(reference_weights)
        with ModelRuntime(blob) as runtime:
            barrier = threading.Barrier(12)
            errors = []

            def worker(idx):
                try:
                    barrier.wait()
                    rng = np.random.default_rng(idx)
                    for _ in range(40):
                        name = names[rng.integers(len(names))]
                        np.testing.assert_array_equal(
                            runtime.layer(name), reference_weights[name]
                        )
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,)) for i in range(12)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            # Single-flight: each layer decoded once despite 12 threads.
            assert runtime.stats().decodes == len(names)

    def test_load_into_network_and_decode_all(self, blob, reference_weights):
        with ModelRuntime(blob) as runtime:
            decoded = runtime.decode_all()
            assert set(decoded) == set(reference_weights)

            class FakeNetwork:
                def __init__(self):
                    self.loaded = {}

                def set_weights(self, name, weights):
                    self.loaded[name] = np.array(weights)

            net = FakeNetwork()
            runtime.load_into(net)
            for name, expected in reference_weights.items():
                np.testing.assert_array_equal(net.loaded[name], expected)


class TestSparseRuntime:
    """Compressed-domain serving mode: values, byte accounting, eviction."""

    def test_sparse_layers_match_dense_decode(self, blob, reference_weights):
        with ModelRuntime(blob, sparse=True) as runtime:
            assert runtime.sparse
            for name, expected in reference_weights.items():
                weight = runtime.layer(name)
                np.testing.assert_array_equal(weight.to_dense(), expected)

    def test_cached_sparse_arrays_are_read_only(self, blob):
        with ModelRuntime(blob, sparse=True) as runtime:
            weight = runtime.layer("fc6")
            with pytest.raises(ValueError):
                weight.matrix.data[0] = 1.0

    def test_cache_charges_actual_sparse_footprint(self, blob, reference_weights):
        """Regression: sparse entries are charged data + indices + indptr
        bytes, not the dense ``nbytes`` of the matrix they represent."""
        with ModelRuntime(blob, sparse=True) as runtime:
            decoded = runtime.decode_all()
            expected = sum(w.nbytes for w in decoded.values())
            assert runtime.stats().cache.current_bytes == expected
            # ~4x on this deliberately small model (its fc8 sits at 25%
            # density and indptr overhead looms large at 96x160); the >=5x
            # bar at paper densities is asserted by bench_sparse_inference.
            dense_total = sum(a.nbytes for a in reference_weights.values())
            assert expected < dense_total / 3

    def test_eviction_order_under_sparse_accounting(self, blob, reference_weights):
        """Pin the LRU behaviour that the true-footprint accounting buys.

        The budget is one dense layer's nbytes: under the dense charging a
        single entry would blow it, but every sparse entry fits with room to
        spare — zero evictions.  A budget one byte short of the sparse total
        then evicts in exact LRU order.
        """
        with ModelRuntime(blob, sparse=True) as probe:
            sizes = {n: probe.layer(n).nbytes for n in probe.layer_names}
        names = list(sizes)  # manifest order: fc6, fc7, fc8
        dense_single = max(a.nbytes for a in reference_weights.values())
        assert sum(sizes.values()) < dense_single

        with ModelRuntime(blob, cache_bytes=dense_single, sparse=True) as runtime:
            for name in names:
                runtime.layer(name)
            stats = runtime.stats()
            assert stats.cache.evictions == 0
            assert runtime._cache.keys() == names

        budget = sum(sizes.values()) - 1
        with ModelRuntime(blob, cache_bytes=budget, sparse=True) as runtime:
            for name in names:
                runtime.layer(name)
            # Third insert pushed past the budget: the LRU entry (fc6) went.
            assert runtime.stats().cache.evictions == 1
            assert runtime._cache.keys() == names[1:]
            runtime.layer(names[1])  # refresh fc7 -> fc8 becomes LRU
            runtime.layer(names[0])  # re-decode fc6 -> evicts fc8
            assert runtime._cache.keys() == [names[1], names[0]]
            assert runtime.stats().cache.evictions == 2

    def test_load_into_installs_sparse_weights(self, blob, reference_weights):
        with ModelRuntime(blob, sparse=True) as runtime:

            class FakeNetwork:
                def __init__(self):
                    self.sparse_loaded = {}

                def set_sparse_weights(self, name, weight):
                    self.sparse_loaded[name] = weight

            net = FakeNetwork()
            runtime.load_into(net)
            for name, expected in reference_weights.items():
                np.testing.assert_array_equal(
                    net.sparse_loaded[name].to_dense(), expected
                )
