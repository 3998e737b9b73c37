"""The package runs on its declared dependencies alone.

``pyproject.toml`` declares ``numpy`` and nothing else, so no module under
``src/repro`` may import another third-party package, and compiling a model
must work where such packages are absent.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"


def declared_dependencies():
    """Distribution names in ``[project] dependencies`` of ``pyproject.toml``."""
    text = PYPROJECT.read_text()
    listed = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert listed is not None, "pyproject.toml declares no dependencies list"
    return {
        re.split(r"[<>=!~\[; ]", requirement, maxsplit=1)[0].lower()
        for requirement in re.findall(r"\"([^\"]+)\"", listed.group(1))
    }


def imported_top_level_modules(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.module.split(".")[0]


def test_dependencies_are_numpy_only():
    assert declared_dependencies() == {"numpy"}


def test_every_import_is_stdlib_repro_or_declared():
    allowed = set(sys.stdlib_module_names) | {"repro"} | declared_dependencies()
    undeclared = sorted(
        f"{path.relative_to(PACKAGE.parent)}: {module}"
        for path in PACKAGE.rglob("*.py")
        for module in imported_top_level_modules(path)
        if module not in allowed
    )
    assert not undeclared, undeclared


COMPILE_WITHOUT_NETWORKX = """
import sys

sys.modules["networkx"] = None  # any import of networkx now raises ImportError

import repro.core
from repro.core import compile_model, compile_slice, CompilerConfig
from repro.nn.models.vgg import build_vgg9
from repro.nn.stats import model_layer_specs
from repro.nn.ternary import synthetic_ternary_weights

compiled = compile_slice(synthetic_ternary_weights((32, 9), 0.7, rng=3))
assert len(compiled.program) > 0
model = build_vgg9(width_multiplier=1 / 16, input_size=16, sparsity=0.85, rng=0)
specs = model_layer_specs(model, (3, 16, 16))
compiled_model = compile_model(specs, CompilerConfig(), emit_programs=True)
assert all(layer.slices for layer in compiled_model.layers)
loaded = {name.split(".")[0] for name, module in sys.modules.items() if module}
assert "networkx" not in loaded
print("ok")
"""


def test_compiles_without_networkx():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run(
        [sys.executable, "-c", COMPILE_WITHOUT_NETWORKX],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
