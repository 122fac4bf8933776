"""Source hygiene: the package keeps no helper that only tests reference,
and no attribute that nothing reads."""

import ast
import os

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


def _definitions(tree):
    """(qualified name, node) for the top-level functions and classes and
    the methods of top-level classes, without dunders."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        if isinstance(node, ast.ClassDef):
            out.extend(("%s.%s" % (node.name, item.name), item)
                       for item in node.body
                       if isinstance(item, ast.FunctionDef))
    return [(name, node) for name, node in out
            if not (node.name.startswith("__") and node.name.endswith("__"))]


def _references(tree):
    """(identifier, node) for every name and attribute the module refers
    to; docstrings and comments are not references, and neither is an
    import, which only binds a name."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node))
    return out


def _exported(tree):
    """The strings of a module-level ``__all__`` list."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def unread_imports():
    """module:name for every name a package module imports and never
    reads; names that ``__init__.py`` lists in ``__all__`` are re-exports."""
    out = []
    for path, text in sorted(_sources(PACKAGE).items()):
        tree = ast.parse(text)
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if os.path.basename(path) == "__init__.py":
            read |= _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        out.append("%s:%s" % (os.path.basename(path)[:-3], bound))
    return out


# Names that may go without a caller in ``src/``, each with its reason.
ALLOWED = {
    # called from outside the package's own code
    "cli._Parser.error": "argparse calls it",
    # reference implementations kept to cross-check the main routes
    "repthy.alt_cell_realization_check": "oracle for cell modules",
    "repthy.route_agreement": "oracle for the two table routes",
    "repthy.gram_certificate_numeric": "oracle for generic Gram ranks",
    "engine.direct_structure_constants":
        "the independent route that table_build and the tests use",
    "scalars.parse_scalar": "the round-trip oracle for to_text",
    "words.WordElement.sigma": "the reference for sigma_position",
    # partition helpers the LLT route of ROADMAP item 9 will call
    "combinat.addable_nodes": "awaits the LLT route",
    "combinat.removable_nodes": "awaits the LLT route",
    "combinat.e_regular": "awaits the LLT route",
    "combinat.residue": "awaits the LLT route",
    # their tests check mathematics, not the helper
    "combinat.mixed_weights": "tests check the weight multiset",
    "combinat.dominant_weight_order": "tests check the dominance order",
    "combinat.apply_word_to_tableau": "tests check the tableau action",
    "combinat.phi_map": "tests check the weights of singular vectors",
    "tensor.act_F": "test_quantum_group_axioms checks act_E against "
                    "the U_q(gl_n) relations",
    "tensor.act_K": "test_quantum_group_axioms checks act_E against "
                    "the U_q(gl_n) relations",
}


def unreferenced_names():
    """Names defined in the package's modules that no name, attribute or
    import in ``src/`` refers to outside the name's own definition, so
    self-recursion is not a use.  A method is referenced only through an
    attribute (``x.name``): a bare variable of the same name is no use."""
    trees = {path: ast.parse(text)
             for path, text in _sources(os.path.join(ROOT, "src")).items()}
    refs = {path: _references(tree) for path, tree in trees.items()}
    dead = []
    for path in sorted(p for p in trees if os.path.dirname(p) == PACKAGE):
        for name, node in _definitions(trees[path]):
            inside = {id(sub) for sub in ast.walk(node)}
            method = "." in name
            used = any(ident == node.name
                       and not (method and isinstance(ref, ast.Name))
                       and not (where == path and id(ref) in inside)
                       for where, pairs in refs.items()
                       for ident, ref in pairs)
            if not used:
                dead.append("%s.%s" % (os.path.basename(path)[:-3], name))
    return dead


# Attributes stored in ``src/wbq`` that no code there or in ``tests/``
# reads, each with its reason.
ALLOWED_UNREAD = {
    "cli._Parser._negative_number_matcher": "argparse reads it",
}


def _read_attributes():
    """Every attribute name that ``src/`` or ``tests/`` loads, deletes or
    updates in place, or names in a ``getattr`` call."""
    out = set()
    for directory in ("src", "tests"):
        for text in _sources(os.path.join(ROOT, directory)).values():
            for node in ast.walk(ast.parse(text)):
                if isinstance(node, ast.AugAssign):
                    node = node.target
                if (isinstance(node, ast.Attribute)
                        and not isinstance(node.ctx, ast.Store)):
                    out.add(node.attr)
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "getattr"
                      and len(node.args) > 1
                      and isinstance(node.args[1], ast.Constant)):
                    out.add(node.args[1].value)
    return out


def unread_attributes():
    """module.Class.name for every attribute that a package module stores
    (``x.name = ...``) and that no code in ``src/`` or ``tests/`` reads
    under that name; module.name for a store outside any class."""
    read = _read_attributes()
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            inner = prefix
            if isinstance(child, ast.ClassDef):
                inner = "%s.%s" % (prefix, child.name)
            elif (isinstance(child, ast.Attribute)
                    and isinstance(child.ctx, ast.Store)
                    and child.attr not in read):
                out.append("%s.%s" % (prefix, child.attr))
            visit(child, inner)

    for path, text in sorted(_sources(PACKAGE).items()):
        visit(ast.parse(text), os.path.basename(path)[:-3])
    return sorted(set(out))


def value_format_reads():
    """module:line for every ``.rep`` read outside ``scalars.py``, the one
    module that knows how a scalar is stored."""
    out = []
    for path, text in sorted(_sources(PACKAGE).items()):
        module = os.path.basename(path)[:-3]
        if module == "scalars":
            continue
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Attribute) and node.attr == "rep"
                    and isinstance(node.ctx, ast.Load)):
                out.append("%s:%d" % (module, node.lineno))
    return out


def test_only_scalars_reads_the_value_format():
    assert value_format_reads() == []


def test_every_package_name_is_referenced():
    assert sorted(set(unreferenced_names()) - set(ALLOWED)) == []


def test_every_imported_name_is_read():
    assert unread_imports() == []


def test_every_allowed_name_still_lacks_a_caller():
    # an exemption lapses once the name gets a caller or is deleted
    assert sorted(set(ALLOWED) - set(unreferenced_names())) == []


def test_every_stored_attribute_is_read():
    assert sorted(set(unread_attributes()) - set(ALLOWED_UNREAD)) == []


def test_every_allowed_attribute_is_still_unread():
    assert sorted(set(ALLOWED_UNREAD) - set(unread_attributes())) == []
