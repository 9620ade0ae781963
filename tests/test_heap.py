"""Phase 2 keeps its heap resident: after a warm-up campaign, a UE reuses the
pages the previous UE freed instead of faulting its arrays in again, both in
the campaign's own process and in a pool worker set up by _init_worker."""
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# Two 1-ring, 1-UE-per-cell phase-2 campaigns in one interpreter; prints the
# minor faults of the second. "init_worker" routes the UEs through the pool
# worker's entry points in this process, as a spawned worker runs them.
CODE = """
import resource, sys
from chan3d import campaign
from chan3d.config import default_config

def as_a_worker(ctx, n_ues, workers):
    campaign._init_worker(ctx)
    return [campaign._worker_records(i) for i in range(n_ues)]

if sys.argv[1] == "init_worker":
    campaign._map_records = as_a_worker
cfg = default_config("UMa", master_seed=1)
cfg.layout.n_rings, cfg.run.phase, cfg.run.n_ue_per_cell = 1, 2, 1
cfg.run.output_dir = sys.argv[2]
campaign.run_campaign(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
campaign.run_campaign(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's mallopt")
@pytest.mark.parametrize("path", ["map_records", "init_worker"])
def test_second_phase2_campaign_takes_under_5_minor_faults_per_ue(tmp_path, path):
    env_path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", CODE, path, str(tmp_path)],
                         env=dict(os.environ, PYTHONPATH=env_path), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    n_ues = 7 * 3
    assert int(run.stdout) < 5 * n_ues
