"""repro: reproduction of "Full-Stack Optimization for CAM-Only DNN Inference" (DATE 2024).

The library implements the paper's full stack:

* a racetrack-memory-based associative-processor (RTM-AP) accelerator model -
  functional CAM/AP simulation plus analytical performance and energy models
  (:mod:`repro.rtm`, :mod:`repro.cam`, :mod:`repro.ap`, :mod:`repro.arch`,
  :mod:`repro.perf`),
* the compilation flow that lowers ternary-weight convolutions to AP
  instruction streams - constant folding, CSE, bit-width annotation, DFG
  scheduling, column allocation and code generation (:mod:`repro.core`),
* the execution-plan runtime that functionally simulates whole networks on
  many APs at once - serial or parallel executors, deterministic counters
  (:mod:`repro.runtime`),
* the end-to-end inference dataflow that chains real quantized activations
  between layers and batches images across one leased AP pool, with logits
  byte-identical to the pure-NumPy quantized reference
  (:mod:`repro.inference`),
* the NumPy neural-network substrate and model zoo (:mod:`repro.nn`),
* the crossbar (DNN+NeuroSim-style) and DeepCAM-style baselines
  (:mod:`repro.baselines`),
* the evaluation harness that regenerates the paper's Table II and Fig. 4
  (:mod:`repro.eval`),
* and the public entry point that ties it all together: the weight-resident
  :class:`~repro.session.Session` (:mod:`repro.session`).

Quickstart - the paper's operating model is *deploy once, serve many*:
ternary weights are programmed into CAM a single time and stay resident
while activations stream through.  A session makes that explicit::

    from repro.session import Session

    with Session(model="vgg9", width=1 / 16) as session:
        session.compile().deploy()          # weights pinned into CAM once
        result = session.infer(images)      # warm: zero lease/reprogram events
        print(result.predictions)
        print(session.report().to_text())   # deploy_cost vs per_request_cost

The compile/allocate/execute stages underneath (``specs_for_network`` ->
``compile_model`` -> ``build_execution_plan`` -> ``Accelerator`` ->
executors) remain importable for advanced use; see the README's
"Advanced: the pipeline under the session" section.  The analytic model is
reachable without a session::

    from repro import CompilerConfig, compile_model, evaluate_model, specs_for_network

    specs = specs_for_network("vgg9", sparsity=0.85)
    compiled = compile_model(specs, CompilerConfig(activation_bits=4))
    performance = evaluate_model(compiled)
    print(performance.energy_uj, performance.latency_ms)
"""

from repro.ap.backends import DEFAULT_BACKEND, ExecutionBackend, available_backends
from repro.ap.core import AssociativeProcessor
from repro.ap.isa import APInstruction, APOpcode, APProgram, ColumnRegion
from repro.arch.accelerator import Accelerator, APAddress
from repro.arch.config import APConfig, ArchitectureConfig
from repro.baselines.crossbar import CrossbarConfig, evaluate_crossbar_model
from repro.baselines.deepcam import DeepCAMConfig, evaluate_deepcam_model
from repro.core.compiler import (
    CompiledLayer,
    CompiledModel,
    CompiledSlice,
    CompilerConfig,
    compile_layer,
    compile_model,
    compile_slice,
)
from repro.core.frontend import specs_for_network, specs_from_model
from repro.core.report import compare_configurations
from repro.eval.accuracy import run_accuracy_experiment
from repro.eval.fig4 import generate_fig4
from repro.eval.table2 import generate_table2
from repro.inference import (
    ActivationStore,
    BatchedInference,
    DataflowGraph,
    InferenceResult,
    quantized_reference_forward,
)
from repro.nn.models.registry import available_models, build_model
from repro.nn.stats import ConvLayerSpec, model_layer_specs
from repro.perf.endurance import endurance_report
from repro.perf.model import (
    PerformanceModelConfig,
    SteadyStateCost,
    crosscheck_cost_model,
    evaluate_model,
)
from repro.perf.pipeline import (
    PipelineCost,
    pipeline_cost,
    pipeline_cost_from_execution,
)
from repro.rtm.timing import RTMTechnology
from repro.runtime import (
    ExecutionPlan,
    PlanExecution,
    Scheduler,
    available_executors,
    build_execution_plan,
    resident_aps_required,
)
from repro.serving import (
    Cluster,
    ClusterConfig,
    ClusterResult,
    ClusterStats,
    Frontend,
)
from repro.session import (
    PendingRequest,
    Session,
    SessionConfig,
    SessionReport,
    SessionState,
)


__version__ = "1.4.0"

__all__ = [
    "Session",
    "SessionConfig",
    "SessionReport",
    "SessionState",
    "Cluster",
    "ClusterConfig",
    "ClusterResult",
    "ClusterStats",
    "Frontend",
    "SteadyStateCost",
    "AssociativeProcessor",
    "ExecutionBackend",
    "DEFAULT_BACKEND",
    "available_backends",
    "Accelerator",
    "APAddress",
    "ExecutionPlan",
    "PlanExecution",
    "Scheduler",
    "PendingRequest",
    "PipelineCost",
    "pipeline_cost",
    "pipeline_cost_from_execution",
    "available_executors",
    "build_execution_plan",
    "resident_aps_required",
    "ActivationStore",
    "BatchedInference",
    "DataflowGraph",
    "InferenceResult",
    "quantized_reference_forward",
    "crosscheck_cost_model",
    "APInstruction",
    "APOpcode",
    "APProgram",
    "ColumnRegion",
    "APConfig",
    "ArchitectureConfig",
    "RTMTechnology",
    "CrossbarConfig",
    "evaluate_crossbar_model",
    "DeepCAMConfig",
    "evaluate_deepcam_model",
    "CompilerConfig",
    "CompiledSlice",
    "CompiledLayer",
    "CompiledModel",
    "compile_slice",
    "compile_layer",
    "compile_model",
    "compare_configurations",
    "specs_for_network",
    "specs_from_model",
    "run_accuracy_experiment",
    "generate_fig4",
    "generate_table2",
    "available_models",
    "build_model",
    "ConvLayerSpec",
    "model_layer_specs",
    "endurance_report",
    "PerformanceModelConfig",
    "evaluate_model",
    "__version__",
]
