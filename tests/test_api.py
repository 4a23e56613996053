import ast
from fractions import Fraction
from pathlib import Path

import coxcartan
from coxcartan import linalg

SRC = Path(coxcartan.__file__).parent

# exported names that no module calls yet, each with the ROADMAP item that
# needs it
KEEP = {
    "check_local_boundedness": "item 7: certify the CKQ hypothesis of an almost split sequence",
    "direct_sum": "item 7: the middle term N' inside E0 + N",
    "find_isomorphism": "item 7: compare the sequence with almost_split_mesh",
    "inj_dim_simple": "item 6: certify inj.dim DN = 1 on a poset",
}


def exported_names():
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names]


def names_used_in_modules():
    """Every name read as a variable or an attribute in a module of the
    package other than __init__.py; a def or class line defines its name
    and reads none."""
    used = set()
    for path in SRC.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def test_every_export_has_a_caller():
    used = names_used_in_modules()
    unused = [name for name in exported_names() if name not in used and name not in KEEP]
    assert unused == []
    # a KEEP entry goes once its item calls the name, or the name goes
    assert set(KEEP) <= set(exported_names()) and not set(KEEP) & used


def test_no_true_division_outside_fractions():
    # a float enters through `/` alone; the one kept is rref's pivot
    # inverse, a Fraction because F1 is
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        owner = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # breadth first, so an inner def overwrites its outer one
                owner.update((id(inner), node.name) for inner in ast.walk(node))
        found += [(path.name, owner.get(id(node)), ast.unparse(node))
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)]
    assert found == [("linalg.py", "rref", "F1 / m[r][c]")]
    assert type(linalg.F1) is Fraction and linalg.F1 == 1
