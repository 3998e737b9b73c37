"""The dataflow graph: model modules joined with compiled programs and plan.

A :class:`DataflowGraph` is the static join the functional inference engine
executes: one :class:`DataflowNode` per weight layer, linking

* the **module** of the NumPy model (source of the ternary weights, the
  geometry and the dequantization scale),
* the **compiled layer** (per-slice AP programs and the layer mapping), and
* the **planned layer** of the execution plan (tile programs with hardware
  placements).

Nodes form the *per-image* dependency chain: the host executes the model's
interstitial operators (batch norm, ReLU, pooling, residual adds) between
weight layers, so node ``i`` of one image always completes before node
``i+1`` of the *same image* starts - including the residual topologies of
ResNet, whose shortcut adds happen on the host between the chain's nodes.
The engine (:mod:`repro.inference.engine`) walks that chain with a
batch-wide barrier per node; the graph itself only encodes the
activation-readiness dependencies.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.compiler import CompiledLayer, CompiledModel
from repro.errors import CompilationError
from repro.nn.layers import Linear, Module, TernaryConv2d, TernaryLinear
from repro.runtime.plan import ExecutionPlan, PlannedLayer

#: Un-batched input shape: (C, H, W) for images, (features,) for vectors.
ShapeLike = Tuple[int, ...]


def integer_weights(module: Module) -> np.ndarray:
    """The ternary integer weights the compiler lowers for a weight layer.

    Single source of truth shared by the dataflow nodes and the NumPy
    reference path: ternary layers expose their ternary tensor directly;
    real-valued layers fall back to the sign ternarization the compiler
    frontend applies.
    """
    if isinstance(module, (TernaryConv2d, TernaryLinear)):
        return module.ternary_weights.astype(np.int64)
    return np.sign(module.weights).astype(np.int64)


@dataclass
class DataflowNode:
    """One weight layer of the dataflow: module + compiled programs + plan."""

    name: str
    index: int
    module: Module
    compiled: CompiledLayer
    planned: PlannedLayer

    # ------------------------------------------------------------------
    @property
    def mapping(self):
        """The layer's CAM mapping (rows per AP, row tiles, channel groups)."""
        return self.compiled.mapping

    @property
    def is_linear(self) -> bool:
        """True for fully-connected layers (lowered as 1x1 convolutions)."""
        return isinstance(self.module, Linear)

    @property
    def kernel_size(self) -> Tuple[int, int]:
        """Convolution kernel ``(Fh, Fw)`` (1x1 for linear layers)."""
        if self.is_linear:
            return (1, 1)
        size = self.module.kernel_size
        return (size, size)

    @property
    def stride(self) -> int:
        return 1 if self.is_linear else self.module.stride

    @property
    def padding(self) -> int:
        return 0 if self.is_linear else self.module.padding

    @property
    def weight_scale(self) -> float:
        """Real-valued rescale folded back in after the integer arithmetic."""
        return float(getattr(self.module, "scale", 1.0))

    def integer_weights(self) -> np.ndarray:
        """The ternary integer weights the AP programs were compiled from."""
        return integer_weights(self.module)

    def output_spatial(self, positions: int) -> Tuple[int, ...]:
        """Un-batched output shape for ``positions`` output positions."""
        if self.is_linear:
            return (self.mapping.out_channels,)
        height = self.module.output_shape(self._input_shape)[1]
        width = positions // height
        return (self.mapping.out_channels, height, width)

    #: Input shape recorded while building the graph (needed to recover the
    #: 2-D output extent from the flat CAM row dimension).
    _input_shape: ShapeLike = (1, 1, 1)


class DataflowGraph:
    """Static join of a model, its compiled programs and its execution plan.

    Built with :meth:`build`; executed by
    :class:`~repro.inference.engine.BatchedInference`.
    """

    def __init__(
        self,
        model: Module,
        input_shape: ShapeLike,
        plan: ExecutionPlan,
        nodes: List[DataflowNode],
    ) -> None:
        self.model = model
        self.input_shape = tuple(input_shape)
        self.plan = plan
        self.nodes = nodes
        self._by_name = {node.name: node for node in nodes}

    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        model: Module,
        input_shape: ShapeLike,
        compiled: CompiledModel,
        plan: ExecutionPlan,
    ) -> "DataflowGraph":
        """Join a model with its compiled form and execution plan.

        Raises:
            CompilationError: if the model's weight layers do not line up
                with the compiled layers, or if the model was compiled with
                slice sampling (a functional run needs *every* input-channel
                slice; sampled statistics cannot produce real activations).
        """
        walk = list(model.compute_layers(tuple(input_shape)))
        if len(walk) != len(compiled.layers):
            raise CompilationError(
                f"model has {len(walk)} weight layers but the compiled model "
                f"carries {len(compiled.layers)}; compile from the same model"
            )
        planned_by_name = plan.by_name()
        nodes: List[DataflowNode] = []
        for index, ((name, module, shape), compiled_layer) in enumerate(
            zip(walk, compiled.layers)
        ):
            if name != compiled_layer.name:
                raise CompilationError(
                    f"layer order mismatch: model yields {name!r} where the "
                    f"compiled model has {compiled_layer.name!r}"
                )
            if compiled_layer.scale_factor != 1.0 or (
                compiled_layer.compiled_slices != compiled_layer.mapping.in_channels
            ):
                raise CompilationError(
                    f"layer {name!r} was compiled with slice sampling "
                    f"({compiled_layer.compiled_slices} of "
                    f"{compiled_layer.mapping.in_channels} slices); functional "
                    f"inference needs every slice - compile without "
                    f"max_slices_per_layer"
                )
            if name not in planned_by_name:
                raise CompilationError(f"no planned layer named {name!r} in the plan")
            node = DataflowNode(
                name=name,
                index=index,
                module=module,
                compiled=compiled_layer,
                planned=planned_by_name[name],
            )
            node._input_shape = tuple(shape)
            nodes.append(node)
        return cls(model, input_shape, plan, nodes)

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[DataflowNode]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, name: str) -> DataflowNode:
        """Look up a node by layer name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise CompilationError(f"no dataflow node named {name!r}") from None

    def predecessor(self, node: DataflowNode) -> Optional[DataflowNode]:
        """The node producing the activations this node consumes.

        ``None`` for the first layer (its input is the image itself).  The
        chain order is the host execution order, which is also the order the
        activations hand off between AP groups.
        """
        return self.nodes[node.index - 1] if node.index > 0 else None

    def describe(self) -> str:
        """One-line summary used by the CLI and reports."""
        return (
            f"dataflow {self.plan.name!r}: {len(self.nodes)} weight layers, "
            f"{self.plan.num_tiles} tile programs, input {self.input_shape}"
        )


@contextmanager
def patch_weight_layers(
    model: Module,
    input_shape: ShapeLike,
    fn: Callable[[str, Module, np.ndarray], np.ndarray],
):
    """Temporarily route every weight layer's forward through ``fn``.

    Inside the context, calling the model's ``forward`` executes the host
    interstitial operators natively while each weight layer invokes
    ``fn(name, module, x)`` - the hook both the AP dataflow engine and the
    pure-NumPy quantized reference use, so the two paths share every
    operation except the integer convolution itself.
    """
    walk = list(model.compute_layers(tuple(input_shape)))
    saved = []
    try:
        for name, module, _shape in walk:

            def patched(x, _name=name, _module=module):
                return fn(_name, _module, x)

            saved.append((module, module.__dict__.get("forward")))
            module.forward = patched
        yield
    finally:
        for module, original in saved:
            if original is None:
                module.__dict__.pop("forward", None)
            else:
                module.forward = original
