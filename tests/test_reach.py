"""Every public module-level function and class of the package is reached,
and every public method or property of a public class is read, by package
code or the benchmark harness; every private module-level function, class
and constant is read by package code.  Tests alone do not count."""

import ast
from pathlib import Path

import pressgap

PACKAGE = Path(pressgap.__file__).parent
BENCH = Path(__file__).resolve().parents[1] / "perfbench"

# public names no caller reaches yet, each waiting on a ROADMAP item that
# wires it into the CLI: the obstruction set and its hits (item 6), the
# transfer cross-check in `check` (item 1) and pressure on the natural
# extension (item 2)
PENDING = {
    "decomposition.obstruction_sample",
    "decomposition.ObstructionSample.hits",
    "transfer.check_equilibrium",
    "extension.lift_fiber_averaged",
    "specification.glue_extension",
    "specification.verify_shadow_extension",
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _modules():
    # `pressgap/__init__.py` re-exports names and is no caller
    return {p.stem: _parse(p) for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}


def _outside_reads(tree):
    """(module, name) pairs another file imports by name from a pressgap
    module, or reads as ``module.name``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and (node.level or node.module.startswith("pressgap."))):
            module = node.module.rsplit(".", 1)[-1]
            for alias in node.names:
                yield module, alias.name
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            yield node.value.id, node.attr


def _global_loads(node, local=frozenset()):
    """Names read in `node` that resolve to module globals: a name bound in
    an enclosing function (argument or assignment) is that function's
    local, not a use of the module-level definition."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        bound = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        bound |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
        bound |= {n.id for n in ast.walk(node)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
        local = local | bound
    if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            and node.id not in local):
        yield node
    for child in ast.iter_child_nodes(node):
        yield from _global_loads(child, local)


def _public_members(tree):
    """(class, member) for every public method or property of a public
    class defined at the top of `tree`."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")):
                    yield node.name, item.name


def _unreached():
    modules = _modules()
    bench = [_parse(path) for path in BENCH.glob("*.py")]
    outside = {pair for tree in bench for pair in _outside_reads(tree)}
    # a member is read by name: an attribute anywhere in the package or
    # the harness, whatever object it is read from
    attributes = {node.attr for tree in [*modules.values(), *bench]
                  for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    outside |= {(module, name) for source, tree in modules.items()
                for module, name in _outside_reads(tree) if module != source}
    unreached = set()
    for module, tree in modules.items():
        loads = list(_global_loads(tree))
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_") or (module, node.name) in outside):
                continue
            inside = set(map(id, ast.walk(node)))
            if not any(load.id == node.name and id(load) not in inside
                       for load in loads):
                unreached.add(f"{module}.{node.name}")
        unreached |= {f"{module}.{cls}.{member}"
                      for cls, member in _public_members(tree)
                      if member not in attributes}
    return unreached


def test_every_public_definition_is_reached():
    # a name only tests use belongs in tests/oracles.py
    assert _unreached() == PENDING


def _private_definitions(tree):
    """(name, node) of every private function, class and constant defined
    at the top of `tree`; dunder names belong to Python."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _unread_private():
    modules = _modules()
    imported = {(module, name) for source, tree in modules.items()
                for module, name in _outside_reads(tree) if module != source}
    unread = set()
    for module, tree in modules.items():
        loads = list(_global_loads(tree))
        for name, node in _private_definitions(tree):
            inside = set(map(id, ast.walk(node)))
            if (module, name) not in imported and not any(
                    load.id == name and id(load) not in inside for load in loads):
                unread.add(f"{module}.{name}")
    return unread


def test_every_private_definition_is_read_by_the_package():
    # a private name only tests or the benchmark read is dead package code
    assert _unread_private() == set()


def _defaulted(module, tree):
    """(call name, label, parameter, position, self offset) of every
    defaulted parameter of a function or method in `tree`; a method's
    `self` (or `cls`) is one position, and `__init__` is called by its
    class's name."""
    owners = {id(f): c for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
              for f in c.body}
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        owner = owners.get(id(fn))
        label = f"{module}.{owner.name}.{fn.name}" if owner else f"{module}.{fn.name}"
        called = owner.name if owner and fn.name == "__init__" else fn.name
        offset = 1 if owner else 0
        args = fn.args
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        for i, a in enumerate(positional[first:], first):
            yield called, label, a.arg, i, offset
        for a, d in zip(args.kwonlyargs, args.kw_defaults):
            if d is not None:
                yield called, label, a.arg, None, offset


def _passed(call, name, position, offset):
    """Whether `call` may set parameter `name`, by keyword or, when it has
    a `position`, positionally; ``*`` and ``**`` arguments may set any."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    return position is not None and any(
        isinstance(arg, ast.Starred) or i + offset == position
        for i, arg in enumerate(call.args))


def _call_name(call):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _unset_parameters():
    modules = _modules()
    calls = {}
    for tree in [*modules.values(), *map(_parse, BENCH.glob("*.py"))]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_call_name(node), []).append(node)
    unset = set()
    for module, tree in modules.items():
        for called, label, name, position, offset in _defaulted(module, tree):
            if label in PENDING:
                continue
            if not any(_passed(call, name, position, offset)
                       for call in calls.get(called, ())):
                unset.add(f"{label}({name})")
    return unset


def test_every_default_is_overridden_by_some_caller():
    # a parameter that no package or benchmark call sets is a constant of
    # its module, read when the function runs
    assert _unset_parameters() == set()
