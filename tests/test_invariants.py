import ast
from pathlib import Path

import rankforge


def test_no_assert_statements_in_library():
    # invariants must survive `python -O`, which strips assert statements
    found = []
    for path in sorted(Path(rankforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements guard invariants at {found}"


def test_no_private_helper_imported_across_modules():
    # a helper named _x stays inside its module; shared code gets a public name
    found = []
    for path in sorted(Path(rankforge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level and node.module:
                found += [f"{path.name}:{node.lineno} {a.name}" for a in node.names
                          if a.name.startswith("_") and not a.name.startswith("__")]
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
