"""The references in tests/ share no code with the program they check.

Every ``tests/*_reference.py`` module is built from the documented model
alone, so a test that compares phononbus against it is a differential check.
This fails if one of them imports phononbus, directly or from a submodule.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent


def phononbus_imports(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "phononbus"]
        elif isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").split(".")[0] == "phononbus"):
            found.append("." * node.level + (node.module or ""))
    return found


def test_no_reference_module_imports_phononbus():
    references = sorted(TESTS.glob("*_reference.py"))
    assert {p.name for p in references} >= {"full_space_reference.py", "no_jump_reference.py", "spin_reference.py"}
    assert {p.name: phononbus_imports(p) for p in references} == {p.name: [] for p in references}


def test_the_import_guard_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import numpy\nimport phononbus\nimport phononbus.dynamics as d\n"
        "from phononbus.qops import embed\nfrom . import helper\nfrom scipy.linalg import expm\n",
        encoding="utf-8",
    )
    assert phononbus_imports(probe) == ["phononbus", "phononbus.dynamics", "phononbus.qops", "."]
