"""The routers are the only way into the evaluation kernels.

``special.hurwitz_split_many`` and its lattice twin ``special.hurwitz_grid``
give each point its route and group; a module that called a kernel directly
would skip those rules (a box count on Euler-Maclaurin alone found no
remainder bound around the trivial zero -26).  So no module of the package
but ``special`` may name a kernel: as a name, an attribute or an import.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "zetaflow"
KERNELS = {"euler_maclaurin_split", "_em_grid", "_em_split", "_h_rule", "_reflect"}
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "special.py")


def _kernel_names(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every kernel name in the module at ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names if name in KERNELS]
    return found


def test_the_package_has_modules_besides_special():
    assert {p.name for p in MODULES} >= {"cli.py", "dirichlet.py", "ode.py", "pde.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_special_names_a_kernel(path):
    assert _kernel_names(path) == []


def test_the_check_sees_a_kernel_call(tmp_path):
    module = tmp_path / "caller.py"
    module.write_text("from .special import _h_rule\n"
                      "reg = special.euler_maclaurin_split(s, 1.0)[0]\n")
    assert _kernel_names(module) == [(1, "_h_rule"), (2, "euler_maclaurin_split")]
