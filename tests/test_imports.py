"""Every name a flexts module imports is read in that module."""

import ast
from pathlib import Path

import flexts

SRC = Path(flexts.__file__).parent

# Bindings no flexts code reads, kept because perfbench/test_perfbench.py
# reads them as module attributes (a tracer must wrap every binding).
READ_BY_PERFBENCH = {("estimator", "nw_predict_grid"),
                     ("baselines", "pairwise_sq_dists")}


def unused_imports(source):
    """(line, name) of each imported name the module neither reads nor lists
    in ``__all__``, the package's re-exports."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in read and name not in exported)


def test_unused_imports_are_found():
    source = "import os\nimport sys as system\nfrom a.b import c, d\n" \
             "__all__ = ['d']\nprint(os.sep)\n"
    assert unused_imports(source) == [(2, "system"), (3, "c")]


def test_every_imported_name_is_read():
    unused = [f"{path.name}:{line} {name}"
              for path in sorted(SRC.glob("*.py"))
              for line, name in unused_imports(path.read_text())
              if (path.stem, name) not in READ_BY_PERFBENCH]
    assert unused == []
