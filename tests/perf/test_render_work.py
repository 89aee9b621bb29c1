"""EdgeML frame renders per sweep as a pinned count (no clock).

EdgeML's first partition embeds every frame it receives.  The three
split depths of ``edgeml-split-sweep`` see the same camera frames, and
a crashed partition's replay re-requests them, so the embedding is
memoized per ``FrameSpec`` in ``repro.apps.vision``: each distinct frame
is rendered once per process however often it is embedded.
"""

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

    def counted_render(spec):
        renders.append(spec)
        return render_gray(spec)

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
