"""Every example script must run to completion as a real subprocess.

These are the repo's live documentation; a broken example is a broken
deliverable.  The slow Fig. 9-style sweep (``failure_burst.py``) only
gets an import check here — it runs ~25 full simulations.
"""

import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).resolve().parents[2] / "examples"
SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


def run_example(name, timeout=420):
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout, env=env,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "throughput:" in out
    assert "recoveries:       1" in out


def test_scheme_comparison():
    out = run_example("scheme_comparison.py")
    for label in ("base", "rep-2", "local", "dist-1", "ms-8"):
        assert label in out


def test_mobility_handoff():
    out = run_example("mobility_handoff.py")
    assert "urgent mode" in out
    assert "state transfer" in out
    assert "chronic battery" in out
    assert "outcome 'replaced'" in out


def test_bus_capacity():
    out = run_example("bus_capacity.py")
    assert out.strip()


def test_signalguru_demo():
    out = run_example("signalguru_demo.py")
    assert out.strip()


def test_scenario_sweep():
    out = run_example("scenario_sweep.py")
    assert "built-in scenarios:" in out
    assert "paper-fig8" in out
    assert "round-trips through JSON: True" in out
    assert "ms-8 recovered" in out


def test_edgeml_sweep():
    out = run_example("edgeml_sweep.py")
    assert "edgeml split profiles" in out
    assert "round-trips through JSON: True" in out
    assert "edgeml[n_stages=2]" in out
    assert "edgeml[n_stages=6]" in out


def test_failure_burst_imports():
    """The sweep itself takes minutes; just verify the module loads and
    its scheme/tolerance wiring is consistent."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "failure_burst", EXAMPLES / "failure_burst.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    assert set(mod.SCHEMES) <= set(mod.TOLERANCE)
