"""No module of the package imports a name that it neither uses nor exports.

Written with the standard library's ast module alone, so it runs wherever
the rest of the suite does.  A name counts as used when it appears as a
bare name anywhere in the module, imports inside functions included, or
when the module lists it in __all__.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "heun_su11"


def imported_names(tree):
    """(name bound in the module, line) for every import but __future__'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= exported_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used_or_exported(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import numpy as np\n"
        "from .errors import NotFactorizable, ValidationError\n"
        "from .monomials import MonomialSum\n"
        "__all__ = ['MonomialSum']\n"
        "def f():\n"
        "    from .verifier import ode_residual\n"
        "    return np.pi, ValidationError\n"
    )
    assert unused_imports(source) == [
        ("math", 2), ("NotFactorizable", 4), ("ode_residual", 8)
    ]
