import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "heavymp"


def _unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
)
def test_every_import_is_used(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def test_unused_import_is_caught():
    assert _unused_imports("from a import b, c\nimport d.e\nprint(c)\n") == ["b", "d"]


def test_public_names_resolve():
    import heavymp
    from heavymp import paths

    namespace = {}
    exec("from heavymp import *", namespace)
    for name in heavymp.__all__:
        assert namespace[name] is getattr(heavymp, name)
    assert heavymp.shorten is paths.shorten and heavymp.PSResult is paths.PSResult
    with pytest.raises(AttributeError, match="no_such_name"):
        heavymp.no_such_name
