"""chan3d depends on numpy alone: every import in the package is relative,
from the standard library, or numpy, at module level or inside a function.
And it derives its random streams one way: no module names numpy's own seed
derivation, which chan3d.rng.keyed_states reproduces over arrays. One
module owns the (UE, site) link geometry: the campaign names neither the
fold nor the Rice-factor kernel that lsp.slow_fading runs. No module runs a
scalar function per array element: none names per_element or fromiter.
No module evaluates array factors element by element: none names to_ports,
response_phases or column_sums. One type describes a link end: antenna's
LinkEnd is the only class of that name, and no module names the array
geometry and TX pattern it replaced. Its setup stays light: importing it and
checking a config load no process pool, and a campaign does not load
numpy.ma."""
import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chan3d"
SEED_NAMES = {"SeedSequence", "default_rng"}
LINK_GEOMETRY_NAMES = {"fold_to_nearest_image", "pow10"}
SCALAR_LOOP_NAMES = {"per_element", "fromiter"}
ELEMENT_PHASE_NAMES = {"to_ports", "response_phases", "column_sums"}
SECOND_END_NAMES = {"ArrayGeometry", "build_tx_pattern"}


def _absolute_imports(path: Path) -> list:
    """The top-level package names of a module's absolute imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def _named(path: Path, wanted=SEED_NAMES) -> list:
    """Each name, attribute, imported or defined name or string constant of
    a module that is one of wanted, sorted."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.append(node.value)
    return sorted(name for name in names if name in wanted)


def test_package_imports_only_stdlib_and_numpy():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    foreign = {
        (path.name, name)
        for path in modules
        for name in _absolute_imports(path)
        if name != "numpy" and name not in sys.stdlib_module_names
    }
    assert not foreign


def test_import_check_sees_every_form(tmp_path):
    # The walk reaches imports inside functions and skips relative ones.
    module = tmp_path / "m.py"
    module.write_text(
        "import os.path, numpy as np\nfrom . import calib\nfrom .geom import x\n"
        "def f():\n    import scipy.linalg\n    from yaml import safe_load\n"
    )
    assert _absolute_imports(module) == ["os", "numpy", "scipy", "yaml"]
    # The seed check sees an imported name, attributes, a bare name and a
    # string handed to getattr, at any depth, and not a docstring's mention.
    seeds = tmp_path / "s.py"
    seeds.write_text(
        '"""Unlike numpy.random.default_rng, ..."""\n'
        "import numpy as np\nfrom numpy.random import SeedSequence as Seeds\n"
        "def f(seed):\n    return np.random.default_rng(np.random.SeedSequence(seed))\n"
        "class C:\n    g = getattr(np.random, 'default_rng')\n    h = default_rng\n"
    )
    assert _named(seeds) == ["SeedSequence"] * 2 + ["default_rng"] * 3


def test_package_derives_no_seed_sequence():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert not {(path.name, name) for path in modules for name in _named(path)}


def test_campaign_names_no_link_geometry_kernel():
    # The campaign reads each link's LOS directions and Rice factor from
    # slow fading, the one module that names both kernels.
    assert set(_named(SRC / "lsp.py", LINK_GEOMETRY_NAMES)) == LINK_GEOMETRY_NAMES
    assert _named(SRC / "campaign.py", LINK_GEOMETRY_NAMES) == []


def test_package_runs_no_scalar_loop_over_array_elements():
    # numpy's array forms replaced the scalar-libm loop (np.fromiter over
    # map(math.f, ...)); its oracle lives in tests/libm_oracle.py.
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert not {(path.name, name) for path in modules
                for name in _named(path, SCALAR_LOOP_NAMES)}


def test_package_has_no_per_element_phase_path():
    # Both phases take each port's array factor from antenna.port_factors,
    # one exp per lattice step; the per-element forms live in
    # tests/antenna_oracle.py and tests/synth_oracle.py.
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert not {(path.name, name) for path in modules
                for name in _named(path, ELEMENT_PHASE_NAMES)}


def test_package_has_one_link_end_type():
    # antenna.LinkEnd holds an end's lattice, port weights, pattern and
    # bearing, and checks them: the array geometry beside it, the end class
    # in synth and the TX pattern built apart from the array are gone.
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert not {(path.name, name) for path in modules for name in _named(path, SECOND_END_NAMES)}
    classes = [(path.name, node.name) for path in modules
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.ClassDef)]
    assert [where for where, name in classes if name == "LinkEnd"] == ["antenna.py"]


def _workload_inis(tmp_path) -> list:
    """The benchmark workloads' INIs, filled in as perfbench/run.py fills them."""
    inis = []
    for template in sorted((SRC.parents[1] / "perfbench" / "workloads").glob("*.ini")):
        inis.append(tmp_path / template.name)
        inis[-1].write_text(template.read_text().format(seed=1, output_dir=tmp_path / "out"))
    assert len(inis) == 3
    return inis


def _run_python(code: str, *args) -> str:
    """The stdout of code run in a fresh interpreter that imports chan3d from src."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                         env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_campaigns_load_no_numpy_ma(tmp_path):
    # numpy.ma (about 1 MB) stays unloaded through a campaign of each
    # benchmark workload: numpy 2.4's np.unique loads it on its first call
    # without return_inverse, so the end derives its port slants with it and
    # checks its ports with np.ptp.
    code = (
        "import sys\nfrom chan3d.campaign import run_campaign\n"
        "from chan3d.config import parse_config\n"
        "for ini in sys.argv[1:]:\n    run_campaign(parse_config(ini))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _run_python(code, *_workload_inis(tmp_path)) == "False\n"


def test_setup_loads_no_process_pool_or_numpy_random(tmp_path):
    # Import, parse_config and validate, as perfbench's setup_s times them on
    # each workload, load neither the process pool nor numpy.random: a
    # campaign imports them when it needs them (multiprocessing alone costs
    # several ms of a fresh interpreter's start).
    code = (
        "import sys\nimport chan3d\nfrom chan3d.config import parse_config, validate\n"
        "for ini in sys.argv[1:]:\n    validate(parse_config(ini))\n"
        "heavy = ('multiprocessing', 'concurrent.futures', 'numpy.random')\n"
        "print(sorted(m for m in sys.modules if m.startswith(heavy)))\n"
    )
    assert _run_python(code, *_workload_inis(tmp_path)) == "[]\n"
