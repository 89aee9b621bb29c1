"""The application platform: registry, pipeline builder, built-in apps.

* :mod:`repro.apps.registry` — the name -> app registry and
  :class:`~repro.apps.registry.AppRef`, the JSON-round-trippable
  (name, params) reference every experiment axis uses.
* :mod:`repro.apps.pipeline` — the declarative
  :class:`~repro.apps.pipeline.PipelineSpec` builder apps compile from.
* :mod:`repro.apps.bcp` — **Bus Capacity Prediction** (Fig. 2): camera
  frames at each bus stop are face-counted with a Haar-cascade detector;
  statistical models predict boarding/alighting/staying passengers; the
  prediction cascades to the next stop.
* :mod:`repro.apps.signalguru` — **SignalGuru** (Fig. 3): windshield
  camera frames pass color/shape/motion filters; a voting stage and an
  SVM predict traffic-signal transition times, cascaded to the next
  intersection.
* :mod:`repro.apps.edgeml` — **EdgeML** (sparse_framework-style): a
  camera feeds a neural network partitioned across the region's phones;
  each partition's weights are checkpointable state, so the app stresses
  schemes with megabytes of per-operator state and split-point-dependent
  inter-stage tensors.

Shared synthetic-vision substrate in :mod:`repro.apps.vision` — the
cameras and scenes the paper captured with real hardware are generated
synthetically, but the detectors run real image-processing code on the
frames.
"""

from repro.apps.bcp.app import BCPApp, BCPParams
from repro.apps.edgeml.app import EdgeMLApp, EdgeMLParams
from repro.apps.pipeline import OpDef, PipelineApp, PipelineSpec, StageSpec, stage
from repro.apps.registry import (
    AppEntry,
    AppRef,
    all_apps,
    app_names,
    create_app,
    get_app,
    register_app,
)
from repro.apps.signalguru.app import SignalGuruApp, SignalGuruParams

register_app(
    "bcp", BCPApp, BCPParams,
    description="Bus Capacity Prediction (Fig. 2): camera frames -> "
                "Haar-style face counting -> boarding/capacity models",
)
register_app(
    "signalguru", SignalGuruApp, SignalGuruParams,
    description="SignalGuru (Fig. 3): color/shape/motion filter chains -> "
                "voting -> SVM traffic-signal prediction",
)
register_app(
    "edgeml", EdgeMLApp, EdgeMLParams,
    description="Split-DNN edge inference (sparse_framework-style): camera "
                "-> partitioned network stages with weight state -> "
                "online prototype classifier",
)

__all__ = [
    "AppEntry",
    "AppRef",
    "BCPApp",
    "BCPParams",
    "EdgeMLApp",
    "EdgeMLParams",
    "OpDef",
    "PipelineApp",
    "PipelineSpec",
    "SignalGuruApp",
    "SignalGuruParams",
    "StageSpec",
    "all_apps",
    "app_names",
    "create_app",
    "get_app",
    "register_app",
    "stage",
]
