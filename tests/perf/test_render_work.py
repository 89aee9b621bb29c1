"""Frame renders per sweep as pinned counts (no clock).

EdgeML's first partition embeds every frame it receives.  The three
split depths of ``edgeml-split-sweep`` see the same camera frames, and
a crashed partition's replay re-requests them, so the embedding is
memoized per ``FrameSpec`` in ``repro.apps.vision``: each distinct frame
is rendered once per process however often it is embedded.

SignalGuru's colour and shape filters read the same frame, and BCP's
replicas count the same faces.  Their memos keep results; the only
pixels held are the one frame buffer each miss renders into.
"""

import gc
import tracemalloc

from repro.apps import vision
from repro.apps.edgeml import operators
from repro.scenarios import get
from repro.scenarios.runner import run_case

#: Embeddings the first partitions request over the three quick cases:
#: what the sweep rendered when every request rendered its frame.
EMBEDDINGS = 623
#: Distinct frames among them.
FRAMES = 153


def test_edgeml_sweep_renders_each_frame_once(monkeypatch):
    renders, requests = [], []
    render_gray, embed = vision.render_gray, operators.pooled_features

    def counted_render(spec, out=None):
        renders.append(spec)
        return render_gray(spec, out)

    def counted_embed(spec):
        requests.append(spec)
        return embed(spec)

    monkeypatch.setattr(vision, "render_gray", counted_render)
    monkeypatch.setattr(operators, "pooled_features", counted_embed)
    vision.clear_vision_caches()
    spec = get("edgeml-split-sweep").quick()
    try:
        for app in spec.matrix.apps:
            run_case(spec, app, "ms-8", 3)
    finally:
        vision.clear_vision_caches()
    assert len(requests) == EMBEDDINGS
    assert set(renders) == set(requests)
    assert len(renders) == len(set(renders)) == FRAMES


#: Distinct frames the quick paper-fig8 cases below render.
FIG8_FRAMES = 422
#: Bytes still allocated from ``repro/apps/vision.py`` once the cases are
#: done: its result memos and one reused frame and integral image (~0.3
#: MiB).  Each kept 120x160 float64 frame would add 150 KiB.
VISION_BYTES = 1 << 20
#: Traceback depth: numpy can allocate inside its own Python frames
#: (``np.clip`` three calls deep), below the vision function that asked.
FRAMES_TRACED = 4


def test_fig8_renders_each_frame_once_and_keeps_no_pixels(monkeypatch):
    renders = []
    render_gray = vision.render_gray

    def counted_render(spec, out=None):
        renders.append(spec)
        return render_gray(spec, out)

    monkeypatch.setattr(vision, "render_gray", counted_render)
    vision.clear_vision_caches()
    spec = get("paper-fig8").quick()
    tracemalloc.start(FRAMES_TRACED)
    try:
        for app, scheme in (("signalguru", "base"), ("signalguru", "rep-2"), ("bcp", "base")):
            run_case(spec, app, scheme, 3)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        vision.clear_vision_caches()
    assert len(renders) == len(set(renders)) == FIG8_FRAMES
    held = snapshot.filter_traces([tracemalloc.Filter(True, vision.__file__, all_frames=True)])
    assert sum(trace.size for trace in held.traces) < VISION_BYTES
