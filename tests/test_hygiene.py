"""Source hygiene: the package keeps no code that no command or benchmark
job reaches, no import it does not read and no attribute that nothing
reads.

The reachability gate reads the package's source and never imports it.
Its roots are ``cli.main`` and the handlers in ``cli._COMMANDS``, every
module's top-level code, the entry points that ``perfbench/workloads.py``
calls (``BENCHMARK_ROOTS``; the gate reads that file and checks that it
still names each one) and the ``ALLOWED`` entries, each of which names the
ROADMAP item that will call it.  From the roots it follows every
referenced name: a bare name to the definition it is bound to, an
attribute to every method of that name and to a module's function of that
name; a reached class reaches its dunder methods.  A function, class or
method of ``src/wbq`` that it does not reach fails the gate, even when a
test or another unreached function calls it.  Following every method of a
name errs toward reaching too much, so the gate can miss dead code; code
that only a caller outside the package runs, as argparse calls
``_Parser.error``, needs an ``ALLOWED`` entry.
"""

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


def _package_trees():
    """Module name -> parsed source, for every module of the package."""
    return {os.path.basename(path)[:-3]: ast.parse(text)
            for path, text in _sources(PACKAGE).items()}


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _index(trees):
    """The definitions of the package, keyed by qualified name
    (``module.function``, ``module.Class``, ``module.Class.method``) with
    their module and node; the qualified names of the methods by method
    name; and per module what each bound name stands for: a definition of
    the module, a name imported from another package module, or a package
    module itself."""
    defs, methods, bound = {}, {}, {}
    for module, tree in trees.items():
        names = bound[module] = {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    names[alias.asname or alias.name] = (
                        "%s.%s" % (node.module, alias.name) if node.module
                        else alias.name)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names[node.name] = "%s.%s" % (module, node.name)
                defs[names[node.name]] = module, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        name = "%s.%s.%s" % (module, node.name, item.name)
                        defs[name] = module, item
                        methods.setdefault(item.name, []).append(name)
    return defs, methods, bound


def _own_nodes(node):
    """The nodes a definition runs: a function's whole subtree; a class's
    bases, decorators and statements other than its methods."""
    if not isinstance(node, ast.ClassDef):
        return ast.walk(node)
    parts = node.bases + node.keywords + node.decorator_list + [
        item for item in node.body if not isinstance(item, ast.FunctionDef)]
    return (sub for part in parts for sub in ast.walk(part))


def _targets(nodes, names, defs, methods, trees):
    """The definitions that ``nodes`` refer to.  A bare name refers to what
    it is bound to in its module; an attribute ``x.name`` to every method
    called ``name``, and to the function or class ``name`` of module ``x``;
    ``getattr(x, "name")`` to every method called ``name``.  An import only
    binds a name."""
    for sub in nodes:
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            if names.get(sub.id) in defs:
                yield names[sub.id]
        elif isinstance(sub, ast.Attribute):
            yield from methods.get(sub.attr, ())
            if (isinstance(sub.value, ast.Name)
                    and names.get(sub.value.id) in trees):
                yield "%s.%s" % (names[sub.value.id], sub.attr)
        elif (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
              and sub.func.id == "getattr" and len(sub.args) > 1
              and isinstance(sub.args[1], ast.Constant)):
            yield from methods.get(sub.args[1].value, ())


def reached(trees, roots):
    """The qualified names of the definitions reachable from ``roots`` and
    from every module's top-level code, following references.  A reached
    class reaches its dunder methods, which the interpreter calls."""
    defs, methods, bound = _index(trees)
    todo = list(roots)
    for module, tree in trees.items():
        top = [node for node in tree.body if not isinstance(
            node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))]
        todo.extend(_targets((sub for node in top for sub in ast.walk(node)),
                             bound[module], defs, methods, trees))
    seen = set()
    while todo:
        name = todo.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        module, node = defs[name]
        todo.extend(_targets(_own_nodes(node), bound[module], defs, methods,
                             trees))
        if isinstance(node, ast.ClassDef):
            todo.extend("%s.%s" % (name, item.name) for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and _dunder(item.name))
    return seen


def definitions(trees):
    """Every function, class and method of the package but the dunders."""
    return {name for name, (_, node) in _index(trees)[0].items()
            if not _dunder(node.name)}


def command_roots(trees):
    """``cli.main`` and the handler of every command in ``cli._COMMANDS``."""
    for node in trees["cli"].body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_COMMANDS"
                        for t in node.targets)):
            return ["cli.main"] + ["cli.%s" % entry.elts[0].id
                                   for entry in node.value.values]
    raise AssertionError("cli._COMMANDS not found")


# The package entry points that ``perfbench/workloads.py`` calls, and the
# table methods its checks read.
BENCHMARK_ROOTS = (
    "engine.build_generic_table",
    "engine.save_table",
    "engine.load_table",
    "engine.direct_structure_constants",
    "engine.bundled_path",
    "engine.structure_constants",
    "engine.StructureConstants.product",
    "engine.StructureConstants.specialize",
    "engine.StructureConstants.to_json_dict",
    "engine.SpecializedConstants.product",
    "repthy.relation_suite",
    "repthy.schur_weyl_rank",
)

# Definitions that no command or benchmark job reaches, each with the
# reason it stays; each is a root, so the gate reaches its callees too.
ALLOWED = {
    "cli._Parser.error": "argparse calls it",
    # oracles that a ``verify`` suite of ROADMAP item 3 will run
    "repthy.alt_cell_realization_check": "item 3: oracle for cell modules",
    "repthy.route_agreement": "item 3: oracle for the two cell-module "
                              "constructions",
    "repthy.gram_certificate_numeric": "item 3: oracle for generic Gram "
                                       "ranks",
    "combinat.phi_map": "item 3: labels against gl_n weights",
    # the commutation check of ROADMAP item 1 will call them
    "tensor.act_F": "item 1: commutation with U_q(gl_n)",
    "tensor.act_K": "item 1: commutation with U_q(gl_n)",
    # partition helpers the LLT route of ROADMAP item 9 will call
    "combinat.addable_nodes": "item 9: the LLT route",
    "combinat.removable_nodes": "item 9: the LLT route",
    "combinat.e_regular": "item 9: the LLT route",
    "combinat.residue": "item 9: the LLT route",
}


def unreached(trees, extra_roots=()):
    """Sorted definitions that neither a command, a benchmark job, top-level
    code, an ``ALLOWED`` entry nor ``extra_roots`` reaches."""
    roots = (command_roots(trees) + list(BENCHMARK_ROOTS) + list(ALLOWED)
             + list(extra_roots))
    return sorted(definitions(trees) - reached(trees, roots))


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


def test_every_package_definition_is_reached():
    assert unreached(_package_trees()) == []


def test_the_gate_flags_a_planted_unreached_function():
    # a chain of two functions that only each other and a test call: the
    # second has a caller, but no root reaches either
    trees = _package_trees()
    trees["repthy"].body.extend(ast.parse(
        "def _planted_a(label):\n"
        "    return _planted_b(label)\n"
        "\n"
        "def _planted_b(label):\n"
        "    return label_text(label)\n").body)
    assert unreached(trees) == ["repthy._planted_a", "repthy._planted_b"]
    assert unreached(trees, ["repthy._planted_a"]) == []


def test_every_allowed_entry_names_an_otherwise_unreached_definition():
    # an exemption lapses once a root reaches it or its definition goes
    trees = _package_trees()
    roots = command_roots(trees) + list(BENCHMARK_ROOTS)
    assert sorted(set(ALLOWED) - definitions(trees)) == []
    for name in ALLOWED:
        others = [other for other in ALLOWED if other != name]
        assert name not in reached(trees, roots + others), name


def test_every_root_is_a_definition_the_benchmark_or_a_command_calls():
    trees = _package_trees()
    defs = _index(trees)[0]
    assert [root for root in command_roots(trees) if root not in defs] == []
    with open(os.path.join(ROOT, "perfbench", "workloads.py")) as handle:
        called = {node.attr if isinstance(node, ast.Attribute) else node.id
                  for node in ast.walk(ast.parse(handle.read()))
                  if isinstance(node, (ast.Attribute, ast.Name))}
    assert [root for root in BENCHMARK_ROOTS
            if root not in defs or root.rsplit(".", 1)[1] not in called] == []


def test_every_imported_name_is_read():
    assert unread_imports() == []


def test_every_stored_attribute_is_read():
    assert sorted(set(unread_attributes()) - set(ALLOWED_UNREAD)) == []


def test_every_allowed_attribute_is_still_unread():
    assert sorted(set(ALLOWED_UNREAD) - set(unread_attributes())) == []
