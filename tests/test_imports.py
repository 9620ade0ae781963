"""chan3d depends on numpy alone: every import in the package is relative,
from the standard library, or numpy, at module level or inside a function.
And it derives its random streams one way: no module names numpy's own seed
derivation, which chan3d.rng.keyed_states reproduces over arrays."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chan3d"
SEED_NAMES = {"SeedSequence", "default_rng"}


def _absolute_imports(path: Path) -> list:
    """The top-level package names of a module's absolute imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def _seed_derivations(path: Path) -> list:
    """Each name, attribute, imported name or string constant of a module
    that is one of SEED_NAMES, sorted."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.append(node.value)
    return sorted(name for name in names if name in SEED_NAMES)


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
    assert _seed_derivations(seeds) == ["SeedSequence"] * 2 + ["default_rng"] * 3


def test_package_derives_no_seed_sequence():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert not {(path.name, name) for path in modules for name in _seed_derivations(path)}
