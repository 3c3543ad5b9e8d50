"""Every top-level function, class and upper-case constant of the package is
used by the program, exported, or called by an acceptance criterion: a name
that only its own tests use is dead code."""

import ast
import re
from pathlib import Path

import qslack

ROOT = Path(__file__).parents[1]

# Names that only an acceptance criterion calls, each with its criterion.
CRITERION_NAMES = {
    "generic_primal_dense": 1,
    "generic_dual_dense": 1,
    "generic_primal_objective": 1,
    "generic_dual_objective": 1,
    "parameter_shift_gradient_vector": 6,
}


def _definitions(path: Path):
    """(name, line) of each top-level function, class and upper-case constant."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id.isupper():
                        yield name.id, node.lineno


def test_every_package_name_has_a_user():
    lines = {path: path.read_text().splitlines()
             for folder in ("src", "scripts", "perfbench") for path in sorted((ROOT / folder).rglob("*.py"))}
    unused = []
    for path in sorted((ROOT / "src" / "qslack").glob("*.py")):
        for name, lineno in _definitions(path):
            if name in qslack.__all__ or name in CRITERION_NAMES:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(line) for other, text in lines.items() for i, line in enumerate(text, 1)
                       if (other, i) != (path, lineno)):
                unused.append(f"{path.name}:{lineno} {name}")
    assert not unused, f"defined but used only by tests: {unused}"
