"""DeepSZ reproduction: error-bounded lossy compression of deep neural networks.

This library is a from-scratch reproduction of *DeepSZ: A Novel Framework to
Compress Deep Neural Networks by Using Error-Bounded Lossy Compression*
(Jin et al., HPDC 2019), including every substrate the paper depends on:

* :mod:`repro.codecs` — the unified codec registry (name + capability based
  lookup over every compression back end);
* :mod:`repro.sz` — the SZ error-bounded lossy compressor (prediction,
  linear-scaling quantization, Huffman coding, lossless back ends);
* :mod:`repro.zfp` — a ZFP-style block transform codec (the Figure 2 baseline);
* :mod:`repro.nn` — a NumPy neural-network framework with training
  (the Caffe substitute) plus the paper-scale architecture specs;
* :mod:`repro.data` — synthetic MNIST-like / ImageNet-like datasets;
* :mod:`repro.pruning` — magnitude pruning, masked retraining, and the
  two-array sparse weight format;
* :mod:`repro.baselines` — Deep Compression and Weightless;
* :mod:`repro.core` — the DeepSZ framework itself (error bound assessment,
  accuracy model, error-bound optimization, compressed model generation);
* :mod:`repro.parallel` — the process-pool assessment harness;
* :mod:`repro.store` — the random-access ``.dsz`` model archive and the
  SHA-256 content-addressed :class:`~repro.store.ModelStore`;
* :mod:`repro.serve` — the on-demand serving runtime (decoded-layer LRU
  cache, lazy :class:`~repro.serve.ModelRuntime`, batching
  :class:`~repro.serve.Server`);
* :mod:`repro.analysis` — metrics and table/figure renderers.

Importing :mod:`repro` loads none of these.  It, :mod:`repro.core`,
:mod:`repro.nn`, :mod:`repro.pruning` and :mod:`repro.serve` re-export
their public names lazily (:mod:`repro._lazy`): a submodule is imported
when a name from it is first read, so a process pays only for what it
runs.  A serving worker never loads the assessment engine, training, the
asyncio front door or, for a dense model, SciPy.

Quickstart
----------
>>> from repro.core import DeepSZ, DeepSZConfig
>>> from repro.nn import models
>>> from repro.data import mnist_like, train_test_split
>>> # see examples/quickstart.py for the full pruning + compression flow
"""

from repro._lazy import lazy_exports

__version__ = "1.2.0"

#: Exported name -> defining module, imported on first use (see repro._lazy).
_EXPORTS = {
    "analysis": ".analysis",
    "baselines": ".baselines",
    "codecs": ".codecs",
    "core": ".core",
    "data": ".data",
    "nn": ".nn",
    "parallel": ".parallel",
    "pruning": ".pruning",
    "serve": ".serve",
    "store": ".store",
    "sz": ".sz",
    "utils": ".utils",
    "zfp": ".zfp",
    "DeepSZ": ".core.pipeline",
    "DeepSZConfig": ".core.pipeline",
    "DeepSZResult": ".core.pipeline",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
