"""No module of the package imports a name that it neither uses nor exports,
none imports dataclasses, the algebra modules and the CLI import nothing
from monomials, no module imports verifier, and the package's __init__
imports none of its modules: its name table _HOMES lists the literal
__all__, name for name, and homes only ode_residual and ResidualReport in
verifier.  No module of
the package or of the tests imports a package from outside the standard
library but numpy and pytest.

Written with the standard library's ast module alone, so it runs wherever
the rest of the suite does.  A name counts as used when it appears as a
bare name anywhere in the module, imports inside functions included, or
when the module lists it in __all__.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SRC = ROOT / "src" / "heun_su11"
TESTS = ROOT / "tests"


def imported_names(tree):
    """(name bound in the module, line) for every import but __future__'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def assigned_literal(tree, target, default=None):
    """The literal value the module assigns to target at top level."""
    return next((ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == target for t in node.targets)),
                default)


def exported_names(tree):
    return set(assigned_literal(tree, "__all__", ()))


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used_or_exported(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    # The records are NamedTuples; dataclasses and the inspect module it
    # pulls in cost every process about 15 ms of start-up.
    assert "dataclasses" not in imported_modules(ast.parse(path.read_text(encoding="utf-8")))


def imported_modules(tree):
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    return modules + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]


def foreign_packages(tree):
    """The top-level packages the module imports absolutely that are neither
    in the standard library, nor the package or a test module, nor numpy or
    pytest."""
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and not node.level]
    known = {"heun_su11", "numpy", "pytest", *(p.stem for p in TESTS.glob("*.py"))}
    return {m.split(".")[0] for m in modules} - set(sys.stdlib_module_names) - known


@pytest.mark.parametrize("path", sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]),
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_module_imports_a_foreign_package(path):
    # The test oracles are exact on Python integers, so the suite needs no
    # third-party package but numpy and pytest.
    assert foreign_packages(ast.parse(path.read_text(encoding="utf-8"))) == set()


def test_the_check_sees_a_foreign_package():
    source = (
        "import numpy.linalg, json\n"
        "from . import jsonio\n"
        "from .errors import UsageError\n"
        "from scipy import linalg\n"
        "def f():\n"
        "    import sympy.core\n"
    )
    assert foreign_packages(ast.parse(source)) == {"scipy", "sympy"}


@pytest.mark.parametrize("name", ["heun_core.py", "su11_algebra.py", "cli.py"])
def test_algebra_and_cli_import_nothing_from_monomials(name):
    # The generators and the a0..a7 form act on one monomial at a time, as
    # scalars; a MonomialSum is only the residual's container.
    tree = ast.parse((SRC / name).read_text(encoding="utf-8"))
    assert not {"monomials", "heun_su11.monomials"} & set(imported_modules(tree))


def imports_verifier(tree):
    """Whether the module imports verifier, or a name from it, anywhere."""
    paths = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            paths += [node.module or "", *(f"{node.module}.{alias.name}" for alias in node.names)]
    return any("verifier" in path.split(".") for path in paths)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_verifier(path):
    # No subcommand scores at sample points through verifier; only the
    # library's ode_residual and ResidualReport live there, which __init__
    # names in _HOMES.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not imports_verifier(tree)
    if path.name == "__init__.py":
        homes = assigned_literal(tree, "_HOMES")
        assert sorted(k for k, v in homes.items() if v == "verifier") == [
            "ResidualReport", "ode_residual"]


@pytest.mark.parametrize("source", [
    "from .verifier import ode_residual\n",
    "from . import jsonio, verifier\n",
    "import heun_su11.verifier\n",
    "def f():\n    from heun_su11 import verifier\n",
])
def test_the_check_sees_a_verifier_import(source):
    assert imports_verifier(ast.parse(source))
    assert not imports_verifier(ast.parse("from .spectrum import verifier_like\n"))


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from .errors import NumericalError, ValidationError\n"
        "from .monomials import MonomialSum\n"
        "__all__ = ['MonomialSum']\n"
        "def f():\n"
        "    from .verifier import ode_residual\n"
        "    return np.pi, ValidationError\n"
    )
    assert unused_imports(source) == [
        ("math", 2), ("NumericalError", 4), ("ode_residual", 8)
    ]


def module_level_imports(tree):
    """The modules a module imports outside its functions, a relative one
    with its leading dots."""
    nodes = list(tree.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            nodes.extend(ast.iter_child_nodes(node))


def test_package_init_imports_no_module_and_homes_every_exported_name():
    # `import heun_su11` compiles no module of the package; each name of
    # __all__ imports its home module, from _HOMES, on first use.
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert [m for m in module_level_imports(tree) if m.startswith((".", "heun_su11"))] == []
    homes = assigned_literal(tree, "_HOMES")
    assert list(homes) == assigned_literal(tree, "__all__")
    assert all((SRC / f"{home}.py").is_file() for home in homes.values())


def test_the_check_sees_a_module_level_import():
    source = (
        "import math\n"
        "from . import jsonio\n"
        "try:\n"
        "    from heun_su11.errors import UsageError\n"
        "except ImportError:\n"
        "    pass\n"
        "def f():\n"
        "    from .verifier import ode_residual\n"
    )
    assert sorted(module_level_imports(ast.parse(source))) == [".", "heun_su11.errors", "math"]
