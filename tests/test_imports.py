"""chan3d depends on numpy alone: every import in the package is relative,
from the standard library, or numpy, at module level or inside a function."""
import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "chan3d"


def _absolute_imports(path: Path) -> list:
    """The top-level package names of a module's absolute imports."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


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
