import ast
from pathlib import Path

import rankforge
from rankforge.forms import MultiaffineMap, MultilinearMap


def test_no_assert_statements_in_library():
    # invariants must survive `python -O`, which strips assert statements
    found = []
    for path in sorted(Path(rankforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements guard invariants at {found}"


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def test_no_private_helper_imported_across_modules():
    # a helper named _x stays inside its module, neither imported (from .forms
    # import _x) nor read off a sibling module (forms._x); shared code gets a public name
    paths = sorted(Path(rankforge.__file__).parent.glob("*.py"))
    modules = {path.stem for path in paths}
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if _private(a.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules - {path.stem} and _private(node.attr)):
                found.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert not found, f"private helpers imported across modules at {found}"


def test_no_concurrency_in_library():
    # every computation runs on the calling thread; no module starts threads or processes
    banned = {"threading", "concurrent", "multiprocessing"}
    found = []
    for path in sorted(Path(rankforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] in banned]
    assert not found, f"concurrency imported at {found}"


def test_one_guard_routine():
    # every resource refusal is raised by forms.Shape.guard, which reads its limit at call time
    found = []
    for path in sorted(Path(rankforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "DomainSizeError":
                    found.append(f"{path.name}:{node.lineno}")
    assert len(found) == 1 and found[0].startswith("forms.py:"), f"DomainSizeError raised at {found}"


def _np_call(node, names) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "np" and node.func.attr in names)


def test_one_elimination_kernel():
    # linalg._eliminate is the only elimination: no other module packs bits
    # for it, nor subtracts or XORs a multiple of a row into a matrix in place
    # (the row update of Gaussian elimination) or subtracts an outer product
    found = []
    for path in sorted(Path(rankforge.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _np_call(node, {"packbits", "unpackbits"}):
                found.append(f"{path.name}:{node.lineno} np.{node.func.attr}")
            elif (isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Sub, ast.BitXor))
                    and (isinstance(node.value, ast.BinOp) and isinstance(node.value.op, (ast.Mult, ast.BitAnd))
                         or _np_call(node.value, {"outer"}))):
                found.append(f"{path.name}:{node.lineno} row update")
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Sub, ast.BitXor))
                    and (_np_call(node.left, {"outer"}) or _np_call(node.right, {"outer"}))):
                found.append(f"{path.name}:{node.lineno} outer-product update")
    assert not found, f"elimination outside linalg at {found}"


def _nodes_with_scope(tree):
    """(dotted names of the enclosing classes and defs, node) for every node of the tree."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            else:
                out.append((".".join(scope), child))
                visit(child, scope)

    visit(tree, [])
    return out


def test_one_part_contraction():
    # every part of a map, and every product of the partition-rank search, is
    # evaluated by forms.contract; numpy's contraction routines appear only there
    # and in the complex box-norm average
    allowed = {"forms.py:contract", "analytic.py:_box_average"}
    found, callers = set(), set()
    for path in sorted(Path(rankforge.__file__).parent.glob("*.py")):
        for scope, node in _nodes_with_scope(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "np"
                    and node.attr in {"einsum", "tensordot", "matmul"}):
                found.add(f"{path.name}:{scope}")
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "contract":
                callers.add(f"{path.name}:{scope}")
    assert found <= allowed, f"numpy contractions outside the kernel at {sorted(found - allowed)}"
    users = {"forms.py:part_grid", "forms.py:_evaluate", "forms.py:slice_map", "forms.py:compose_output",
             "analytic.py:_slice_stack", "analytic.py:slice_counts", "partition.py:_Side.images",
             "partition.py:prank_exact.first_solvable", "partition.py:prank_exact.search_depth"}
    assert users <= callers, f"{sorted(users - callers)} no longer call forms.contract"
    assert MultilinearMap.evaluate is MultiaffineMap.evaluate
