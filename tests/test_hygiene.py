"""Source hygiene: the package keeps no helper that nothing references."""

import ast
import collections
import os
import re

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = os.path.join(ROOT, "src", "wbq")


def _sources(directory):
    out = {}
    for dirpath, _, filenames in os.walk(directory):
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as handle:
                    out[path] = handle.read()
    return out


def _defined_names(tree):
    """Top-level functions and classes, and the methods of top-level
    classes, without dunders."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out.extend(item.name for item in node.body
                       if isinstance(item, ast.FunctionDef))
    return [name for name in out
            if not (name.startswith("__") and name.endswith("__"))]


def unreferenced_names():
    """Names defined in the package's modules that appear nowhere in
    ``src/`` or ``tests/`` apart from their own definition."""
    corpus = _sources(os.path.join(ROOT, "src"))
    corpus.update(_sources(HERE))
    uses = collections.Counter(re.findall(r"\w+", "\n".join(corpus.values())))
    dead = []
    for path in sorted(p for p in corpus
                       if os.path.dirname(p) == PACKAGE):
        for name in _defined_names(ast.parse(corpus[path])):
            if uses[name] <= 1:
                dead.append("%s.%s" % (os.path.basename(path)[:-3], name))
    return dead


def test_every_package_name_is_referenced():
    assert unreferenced_names() == []
