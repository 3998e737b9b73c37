"""Functional end-to-end inference on the execution-plan runtime.

This package closes the loop the paper claims - CAM-only *inference* - on top
of the runtime of :mod:`repro.runtime`:

1. :class:`~repro.inference.dataflow.DataflowGraph` joins the model's module
   tree with its compiled per-slice AP programs and the execution plan's tile
   placements, and owns the run's per-layer activation buffers.
2. :class:`~repro.inference.activations.ActivationStore` quantizes every
   layer's input with per-image LSQ calibration and keeps one request's
   per-layer buffers; the engine lowers it (im2col) to the AP row operands
   of the layer's tile programs.
3. :class:`~repro.inference.engine.BatchedInference` executes each layer's
   ``(image, tile)`` instances as staged waves (or per instance on the
   runtime's executors), reduces the exact integer partial sums
   order-independently, and meters CAM counters plus interconnect traffic
   through the accelerator's ledgers.
4. :func:`~repro.inference.reference.quantized_reference_forward` is the
   pure-NumPy ground truth the AP logits must match byte for byte.

Serve requests through :class:`repro.session.Session`, which deploys the
weights once and drives this engine; ``python -m repro infer`` wraps it on
the command line.
"""

from repro.inference.activations import (
    ActivationStore,
    LayerActivations,
    dequantize_batch,
    lower_input_rows,
    quantize_batch,
)
from repro.inference.dataflow import (
    DataflowGraph,
    DataflowNode,
    patch_weight_layers,
)
from repro.inference.engine import (
    BatchedInference,
    InferenceResult,
    InferenceTileResult,
)
from repro.inference.reference import quantized_reference_forward

__all__ = [
    "ActivationStore",
    "LayerActivations",
    "quantize_batch",
    "dequantize_batch",
    "lower_input_rows",
    "DataflowGraph",
    "DataflowNode",
    "patch_weight_layers",
    "BatchedInference",
    "InferenceResult",
    "InferenceTileResult",
    "quantized_reference_forward",
]
