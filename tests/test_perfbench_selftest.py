"""The benchmark harness's self-test, run with the test suite.

It fails when a change to chan3d breaks the harness: the tracer's walk of
the layer modules, or its observers of ``generate_cluster_set`` and
``synthesize``. The ``synthesize`` observer reads four things of a call:
``args[0].clusters.aod``, ``args[0].tx.n_elements``,
``args[0].rx.n_elements`` and ``args[1]``, the times; the link view of
``synth.UeLinks.link`` carries all three attributes. The harness's
``LspSampler.los_state`` observer has nothing left to observe: that class is
gone, and ``lsp.slow_fading`` draws every LOS state of a block in one array
pass, so the benchmark's ``lsp.los_*`` counters read 0.
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
