"""A NumPy neural-network framework (the Caffe substitute).

DeepSZ only ever needs two things from its deep-learning substrate:

* a **forward pass** over a held-out test set to measure inference accuracy
  with one (or more) fc-layers replaced by their decompressed weights, and
* a **masked retraining** loop used once, during the pruning step.

This package provides both, plus everything needed to build and train the
four networks the paper evaluates (LeNet-300-100, LeNet-5, AlexNet, VGG-16):
layers with forward *and* backward passes, SGD training, model serialization,
and exact architecture specifications used for the Table 1 storage accounting.

Public API highlights
---------------------
* :class:`repro.nn.Network` -- a sequential container with ``forward``,
  ``predict``, ``evaluate`` (top-1 / top-5), named-layer access and weight
  replacement (what the error-bound assessment uses).
* :mod:`repro.nn.models` -- builders for the paper's networks at trainable
  ("mini") and exact paper-scale dimensions.
* :mod:`repro.nn.specs` -- the architecture bookkeeping behind Table 1.
"""

from repro._lazy import lazy_exports

#: Exported name -> defining module, imported on first use (see repro._lazy).
_EXPORTS = {
    "he_init": ".initializers",
    "xavier_init": ".initializers",
    "zeros_init": ".initializers",
    "Layer": ".layers",
    "Dense": ".layers",
    "Conv2D": ".layers",
    "ReLU": ".layers",
    "MaxPool2D": ".layers",
    "Flatten": ".layers",
    "Dropout": ".layers",
    "Softmax": ".layers",
    "softmax_cross_entropy": ".losses",
    "Network": ".network",
    "SparseWeight": ".sparse",
    "SGDConfig": ".train",
    "SGDTrainer": ".train",
    "TrainResult": ".train",
    "models": ".models",
    "specs": ".specs",
    "save_network": ".serialize",
    "load_network": ".serialize",
    "network_to_bytes": ".serialize",
    "network_from_bytes": ".serialize",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
