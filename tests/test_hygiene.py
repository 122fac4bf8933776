"""Source hygiene: the package keeps no helper that only tests reference."""

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


# Names that may go without a caller in ``src/``, each with its reason.
ALLOWED = {
    # reference implementations kept to cross-check the main routes
    "repthy.alt_cell_realization_check": "oracle for cell modules",
    "repthy.route_agreement": "oracle for the two table routes",
    "repthy.gram_certificate_numeric": "oracle for generic Gram ranks",
    # partition helpers the LLT route of ROADMAP item 5 will call
    "combinat.addable_nodes": "awaits the LLT route",
    "combinat.removable_nodes": "awaits the LLT route",
    "combinat.e_regular": "awaits the LLT route",
    # their tests check mathematics, not the helper
    "combinat.mixed_weights": "tests check the weight multiset",
    "combinat.dominant_weight_order": "tests check the dominance order",
    "combinat.apply_word_to_tableau": "tests check the tableau action",
}


def unreferenced_names():
    """Names defined in the package's modules that appear nowhere in
    ``src/`` apart from their own definition."""
    corpus = _sources(os.path.join(ROOT, "src"))
    uses = collections.Counter(re.findall(r"\w+", "\n".join(corpus.values())))
    dead = []
    for path in sorted(p for p in corpus
                       if os.path.dirname(p) == PACKAGE):
        for name in _defined_names(ast.parse(corpus[path])):
            if uses[name] <= 1:
                dead.append("%s.%s" % (os.path.basename(path)[:-3], name))
    return dead


def test_every_package_name_is_referenced():
    assert sorted(set(unreferenced_names()) - set(ALLOWED)) == []


def test_every_allowed_name_still_lacks_a_caller():
    # an exemption lapses once the name gets a caller or is deleted
    assert sorted(set(ALLOWED) - set(unreferenced_names())) == []
