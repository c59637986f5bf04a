"""Every module-level function, class and constant in `ans` is used in `ans`,
no module of `ans` reads another's private (`_`-prefixed) name, and every
defaulted parameter of a function in `ans` is passed by some call in `ans`.

A constant is a non-dunder name bound by a module-level assignment.
Dunder functions are exempt: the interpreter calls them as module hooks
(`__getattr__`, PEP 562), so no reference to them appears in the code.  A
reference is a name read in the defining module outside the definition
itself, `module.name` on a module imported with `from . import module`
(under any alias), or `from .module import name`.  Test-only references
live in `tests/oracles.py`, not in the package.  A call passes a parameter
when it is a call by the function's name with an argument at the
parameter's position (after `self` for a method) or its keyword, or with
`*` or `**`; the console entry point `cli.main(argv)` is exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parent.parent / "src" / "ans"


def _module_aliases(tree):
    """{local name: module} for each `from . import module [as alias]`."""
    return {a.asname or a.name: a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for a in node.names}


def _references(module, tree):
    """(module, name) pairs referenced in `tree`, each with the name of the
    top-level definition it sits in (None outside any)."""
    aliases = _module_aliases(tree)
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                yield (module, node.id), owner
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                yield (aliases[node.value.id], node.attr), owner
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                for a in node.names:
                    yield (node.module, a.name), owner


def _definitions(tree):
    """(name, line) of each top-level function, class and constant, but no
    dunder."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            if not top.name.startswith("__"):
                yield top.name, top.lineno
        elif isinstance(top, (ast.Assign, ast.AnnAssign)):
            for target in top.targets if isinstance(top, ast.Assign) else [top.target]:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and not node.id.startswith("__"):
                        yield node.id, top.lineno


def _trees():
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def test_every_definition_in_the_package_has_a_caller():
    trees = _trees()
    defined = [(module, name, line) for module, tree in trees.items()
               for name, line in _definitions(tree)]
    used = {ref for module, tree in trees.items()
            for ref, owner in _references(module, tree) if ref != (module, owner)}
    dead = [f"{module}.py:{line} {name}" for module, name, line in defined
            if (module, name) not in used]
    assert not dead, "defined in ans but referenced nowhere in ans: " + ", ".join(dead)


def _private_reads(trees):
    """`module._name` or `from .module import _name` in another module."""
    return sorted({f"{module}.py reads {owner}.{name}" for module, tree in trees.items()
                   for (owner, name), _ in _references(module, tree)
                   if owner != module and _private(name)})


def test_no_module_reads_another_modules_private_names():
    # a helper two modules share is public, as `closure.spread` is
    reads = _private_reads(_trees())
    assert not reads, "private names read across modules: " + ", ".join(reads)


def test_the_private_read_check_sees_both_forms():
    tree = ast.parse("from . import maps as m\nfrom .closure import _scan, spread\n"
                     "m._BLOCK_CELLS, m.rank, _own\n")
    assert _private_reads({"green": tree}) == ["green.py reads closure._scan",
                                               "green.py reads maps._BLOCK_CELLS"]


# the console entry point: `ans` calls main() with no argument, tests pass argv
_ENTRY_POINTS = {("cli", "main", "argv")}


def _passes(call, param, at):
    """Does `call` pass `param`, the `at`-th positional argument (None if
    keyword-only)?"""
    return (any(k.arg in (param, None) for k in call.keywords)
            or at is not None and (len(call.args) > at
                                   or any(isinstance(x, ast.Starred) for x in call.args)))


def _unpassed_defaults(trees):
    """`module.py:line function(parameter)` for each defaulted parameter
    that no call in `trees` passes."""
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)
    found = []
    for module, tree in trees.items():
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for f in (f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)):
            a, self_ = f.args, id(f) in methods
            positional = a.posonlyargs + a.args
            first = len(positional) - len(a.defaults)
            defaulted = [(p.arg, i - self_) for i, p in enumerate(positional) if i >= first]
            defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            found += [f"{module}.py:{f.lineno} {f.name}({param})" for param, at in defaulted
                      if (module, f.name, param) not in _ENTRY_POINTS
                      and not any(_passes(c, param, at) for c in calls.get(f.name, []))]
    return found


def test_every_defaulted_parameter_is_passed_by_some_call():
    # a default that no caller overrides is a knob nothing turns: a constant
    knobs = _unpassed_defaults(_trees())
    assert not knobs, "defaulted parameters no call in ans passes: " + ", ".join(knobs)


def test_the_default_check_sees_every_way_to_pass():
    tree = ast.parse("def f(a, b=1, c=2, *, d=3, e=4): pass\n"
                     "def g(x=0): pass\n"
                     "def h(y=0, z=0): pass\n"
                     "def k(u=0): pass\n"
                     "class K:\n"
                     "    def m(self, w=0, v=0): pass\n"
                     "def main(argv=None): pass\n"
                     "f(0, 1, e=5)\nh(*args)\nk(**kw)\nK().m(1)\n")
    assert _unpassed_defaults({"cli": tree}) == [
        "cli.py:1 f(c)", "cli.py:1 f(d)", "cli.py:2 g(x)", "cli.py:6 m(v)"]
