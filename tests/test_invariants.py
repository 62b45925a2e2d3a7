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
