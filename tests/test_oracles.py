import ast
import pathlib


def test_oracles_import_nothing_from_the_library():
    """The oracles stay independent of the code they check: no import
    statement in ``oracles.py``, at any depth, names ``simplexshare``."""
    path = pathlib.Path(__file__).with_name("oracles.py")
    modules = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
    assert "numpy" in modules  # the walk sees the module's imports
    assert not [m for m in modules
                if m.startswith(".") or m.split(".")[0] == "simplexshare"]
