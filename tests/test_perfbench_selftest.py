"""The benchmark harness's self-test, run with the test suite.

It fails when a change to chan3d breaks the harness: the tracer's walk of
the layer modules, or its observers of ``LspSampler.los_state``,
``generate_cluster_set`` and ``synthesize``.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
