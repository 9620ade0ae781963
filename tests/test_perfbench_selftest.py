"""The benchmark harness's self-test, run with the test suite.

It fails when a change to chan3d breaks the harness: the tracer's walk of
the layer modules, or its observers of ``generate_cluster_set`` and
``synthesize``. The ``synthesize`` observer reads four things of a call:
``args[0].clusters.aod``, ``args[0].tx.n_elements``,
``args[0].rx.n_elements`` and ``args[1]``, the times; the view that
``synth.UeLinks.toward`` makes of a UE's record toward a TX end carries all
three attributes, its clusters those of all the record's links, so the ray
taps still count every link. The harness's
``LspSampler.los_state`` observer has nothing left to observe: that class is
gone, and ``lsp.slow_fading`` draws every LOS state of a block in one array
pass, so the benchmark's ``lsp.los_*`` counters read 0.
"""
import subprocess
import sys
from pathlib import Path

from chan3d.config import parse_config

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


def test_perfbench_configs_pass_validation(tmp_path):
    # Every benchmark workload and self-test INI, filled in as perfbench/run.py
    # fills it, passes parse_config: a config rule that refused one would make
    # the benchmark exit 2.
    groups = (ROOT / "perfbench" / "workloads", ROOT / "perfbench" / "selftest")
    templates = sorted(path for group in groups for path in group.glob("*.ini"))
    assert templates
    for template in templates:
        ini = tmp_path / f"{template.parent.name}_{template.name}"
        ini.write_text(template.read_text().format(seed=1, output_dir=tmp_path / "out"))
        parse_config(str(ini))
