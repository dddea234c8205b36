"""Source hygiene: no module imports a name it never reads, commands write
only through the one writer, a sequence keeps its memos in `cache`, only
`sweep` stores a `cache` entry, which nothing removes, no module but
`core` reads `cache` at all, so no table is edited under an alias, each
sweep table's key name is grown by one step function, only
`algebra` knows how an exact value is stored, the oracle's module `core`
imports nothing of the package but `algebra`, no module calls
`path_weight`, which the tests keep as the weighted walk's check, and
every parameter default of a module- or class-level function is
overridden by some call in the package or its tests."""

import ast
from pathlib import Path

import pytest

import opuc

MODULES = sorted(p for p in Path(opuc.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by module-level imports and never loaded in the module."""
    tree = ast.parse(source)
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


def test_unused_imports_are_found():
    source = ("import os, sys\nfrom a import b as c, d\n"
              "def f():\n    import json\n    return sys.argv, d, json\n")
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def format_handling(source):
    """(function, what) for each `cmd_*` function that reads the output
    flags or writes to standard output itself instead of through the one
    writer."""
    found = []
    for func in ast.parse(source).body:
        if not (isinstance(func, ast.FunctionDef)
                and func.name.startswith("cmd_")):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and (node.value.id, node.attr) in (
                        ("args", "format"), ("args", "out"),
                        ("sys", "stdout"))):
                found.append((func.name, "%s.%s" % (node.value.id,
                                                    node.attr)))
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr"
                  and any(isinstance(arg, ast.Constant)
                          and arg.value in ("format", "out", "stdout")
                          for arg in node.args)):
                found.append((func.name, "getattr"))
    return found


def test_format_handling_is_found():
    source = ("def cmd_a(args):\n    return args.format\n"
              "def cmd_b(args):\n    sys.stdout.write(getattr(args, 'out'))\n"
              "def _write(args):\n    return args.format, args.out\n")
    assert sorted(format_handling(source)) == [
        ("cmd_a", "args.format"), ("cmd_b", "getattr"),
        ("cmd_b", "sys.stdout")]


def test_cli_commands_write_only_through_the_writer():
    cli = Path(opuc.__file__).with_name("cli.py")
    assert format_handling(cli.read_text()) == []


def sequence_state(source):
    """(attributes `VerblunskySequence.__init__` assigns on self, modules'
    reads of `._accessor`) for a {module name: source} map.  Only `core`
    may read the rule: every other module goes through the accessors and
    their one coefficient table."""
    assigned, readers = set(), []
    for name, text in sorted(source.items()):
        tree = ast.parse(text)
        for node in ast.walk(tree):
            if (isinstance(node, ast.ClassDef)
                    and node.name == "VerblunskySequence"):
                for init in node.body:
                    if (isinstance(init, ast.FunctionDef)
                            and init.name == "__init__"):
                        assigned |= {
                            t.attr for t in ast.walk(init)
                            if isinstance(t, ast.Attribute)
                            and isinstance(t.ctx, ast.Store)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == "self"}
            elif (isinstance(node, ast.Attribute)
                  and node.attr == "_accessor" and name != "core"):
                readers.append(name)
    return assigned, readers


def test_sequence_state_is_found():
    source = {
        "core": ("class VerblunskySequence:\n"
                 "    def __init__(self, f):\n"
                 "        self.mode = self._memo = f\n"
                 "    def alpha(self, j):\n"
                 "        self.other = self._accessor(j)\n"),
        "paths": "def f(vs):\n    return vs._accessor(0)\n",
    }
    assert sequence_state(source) == ({"mode", "_memo"}, ["paths"])


def test_sequence_holds_no_memo_outside_its_cache():
    source = {path.stem: path.read_text() for path in MODULES}
    assert sequence_state(source) == (
        {"mode", "source", "_accessor", "cache"}, [])


def scoped_nodes(tree, where=""):
    """(function, node) for every node under tree, in source order;
    function names are dotted paths from the module, so a method reads
    `Class.method`, and module-level code reads ''."""
    for child in ast.iter_child_nodes(tree):
        name = where
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            name = "%s.%s" % (where, child.name) if where else child.name
        yield name, child
        yield from scoped_nodes(child, name)


def is_cache(node):
    return isinstance(node, ast.Attribute) and node.attr == "cache"


def cache_edits(source):
    """(function, edit) for each statement that deletes, pops, clears or
    assigns an entry of a `.cache`."""
    found = []
    for name, node in scoped_nodes(ast.parse(source)):
        targets, edit = [], None
        if isinstance(node, ast.Delete):
            targets, edit = node.targets, "del"
        elif isinstance(node, ast.Assign):
            targets, edit = node.targets, "assign"
        elif isinstance(node, ast.AugAssign):
            targets, edit = [node.target], "assign"
        if any(isinstance(sub, ast.Subscript) and is_cache(sub.value)
               and isinstance(sub.ctx, (ast.Store, ast.Del))
               for target in targets for sub in ast.walk(target)):
            found.append((name, edit))
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("pop", "clear")
                and is_cache(node.func.value)):
            found.append((name, "." + node.func.attr))
    return found


def test_cache_edits_are_found():
    source = ("class S:\n"
              "    def sweep(self, key):\n"
              "        table = self.cache[key] = []\n"
              "        return table, self.cache[key], self.memo[key]\n"
              "def f(vs, key):\n"
              "    del vs.cache[key]\n"
              "    vs.cache.pop(key, None)\n"
              "    vs.cache.clear()\n"
              "    vs.memo[key] = vs.cache.get(key)\n"
              "    def g():\n"
              "        vs.cache[key] += [1]\n"
              "        a, vs.cache[key] = 1, []\n")
    assert cache_edits(source) == [
        ("S.sweep", "assign"), ("f", "del"), ("f", ".pop"), ("f", ".clear"),
        ("f.g", "assign"), ("f.g", "assign")]


def test_sweep_tables_only_grow():
    # only `sweep` stores a table, and nothing removes one, so a table a
    # caller holds is the one every later call extends
    edits = [(path.stem,) + edit for path in MODULES
             for edit in cache_edits(path.read_text())]
    assert edits == [("core", "VerblunskySequence.sweep", "assign")]


def cache_reads(source):
    """(module, function) for each `.cache` read outside `core`, for a
    {module name: source} map; `functools.cache` is not a sequence's.
    cache_edits sees only edits made through `.cache` itself, so a table
    fetched from it and edited under an alias needs this check."""
    found = []
    for module, text in sorted(source.items()):
        if module == "core":
            continue
        for name, node in scoped_nodes(ast.parse(text)):
            if is_cache(node) and not (isinstance(node.value, ast.Name)
                                       and node.value.id == "functools"):
                found.append((module, name))
    return found


def test_cache_reads_are_found():
    source = {
        "core": "def sweep(self, key):\n    return self.cache.get(key)\n",
        "paths": ("import functools\n"
                  "step = functools.cache(len)\n"
                  "def moment(vs, key):\n"
                  "    cols = vs.cache.get(key)\n"
                  "    cols[0] = 1\n"),
        "cli": "class C:\n    def f(self, vs):\n        return len(vs.cache)\n",
    }
    assert cache_reads(source) == [("cli", "C.f"), ("paths", "moment")]


def test_only_core_reads_a_sequence_cache():
    # sweep is the one way to a table, so it is the one way a table grows
    source = {path.stem: path.read_text() for path in MODULES}
    assert cache_reads(source) == []


def sweep_growers(source):
    """{key name: steps} over the `sweep` calls of a {module name: source}
    map: the key name is the string leading the key tuple (None if there
    is none) and each step reads `module.function`."""
    found = {}
    for module, text in sorted(source.items()):
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "sweep"):
                continue
            named = {kw.arg: kw.value for kw in node.keywords}
            key = node.args[0] if node.args else named.get("key")
            step = node.args[2] if len(node.args) > 2 else named.get("step")
            lead = (key.elts[0] if isinstance(key, ast.Tuple) and key.elts
                    else None)
            name = (lead.value if isinstance(lead, ast.Constant)
                    and isinstance(lead.value, str) else None)
            found.setdefault(name, set()).add(
                "%s.%s" % (module, ast.unparse(step) if step else None))
    return found


def test_sweep_growers_are_found():
    source = {
        "core": ("def f(vs, j):\n"
                 "    return vs.sweep(('coefficients',), j, _coef)\n"),
        "paths": ("def g(vs, n, r, key):\n"
                  "    vs.sweep(('rows', r), n, _a, r)\n"
                  "    vs.sweep(('rows', r + 1), n, step=_b)\n"
                  "    vs.sweep(('coefficients',), n, _coef)\n"
                  "    vs.sweep(key, n, _c)\n"
                  "    return vs.sweep(('x',), n, _a)\n"),
    }
    assert sweep_growers(source) == {
        "coefficients": {"core._coef", "paths._coef"},
        "rows": {"paths._a", "paths._b"}, None: {"paths._c"},
        "x": {"paths._a"}}


def test_each_sweep_table_is_grown_by_one_step():
    # a key name is one table's; a second step growing it would interleave
    # entries of two different rules
    source = {path.stem: path.read_text() for path in MODULES}
    growers = sweep_growers(source)
    assert None not in growers
    assert {name: steps for name, steps in growers.items()
            if len(steps) != 1} == {}


# an ExactScalar's term table, and the parts of a GaussianRational with
# the ints and the root that store them
REPRESENTATION = {"terms", "re", "im", "tre", "tim", "q",
                  "n0", "n1", "n2", "n3", "den"}


def representation_reads(source):
    """(module, what) for each read of an exact value's representation
    outside `algebra`, for a {module name: source} map: an attribute in
    REPRESENTATION, or a private name imported from `algebra`."""
    found = []
    for name, text in sorted(source.items()):
        if name == "algebra":
            continue
        for node in ast.walk(ast.parse(text)):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and node.attr in REPRESENTATION):
                found.append((name, "." + node.attr))
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[-1] == "algebra"):
                found += [(name, alias.name) for alias in node.names
                          if alias.name.startswith("_")]
    return sorted(found)


def test_representation_reads_are_found():
    source = {
        "algebra": "def f(x):\n    return x.terms, x.q\n",
        "paths": ("from .algebra import _scalar, alpha\n"
                  "def f(x, args):\n"
                  "    x.re = 1\n"
                  "    return len(x.terms), x.tim, args.mode\n"),
        "cli": "from opuc.algebra import _ZERO\n",
        "core": "def f(x):\n    return x.n2 // x.den\n",
    }
    assert representation_reads(source) == [
        ("cli", "_ZERO"), ("core", ".den"), ("core", ".n2"),
        ("paths", ".terms"), ("paths", ".tim"), ("paths", "_scalar")]


def test_only_algebra_knows_the_exact_representation():
    source = {path.stem: path.read_text()
              for path in Path(opuc.__file__).parent.glob("*.py")}
    assert representation_reads(source) == []


def foreign_imports(source):
    """The package names a source imports anywhere in it, other than
    `algebra` and what it holds, as dotted targets: `core` holds the
    oracle, which must never reach a path or matrix route."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            sep = "." if node.module else ""
            found += [base + sep + alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
    return [name for name in found
            if (name.startswith(".") or name.split(".")[0] == "opuc")
            and "algebra" not in name.split(".")]


def test_foreign_imports_are_found():
    source = ("import math\nfrom .algebra import one_of\n"
              "from opuc.algebra import LaurentPoly\nfrom . import paths\n"
              "from .matrices import u_power_entry\nimport opuc.cli\n"
              "def f():\n    from opuc import algebra, families\n"
              "    from ..opuc.paths import moment_schroder\n")
    assert foreign_imports(source) == [
        ".paths", ".matrices.u_power_entry", "opuc.cli", "opuc.families",
        "..opuc.paths.moment_schroder"]


def test_the_oracle_module_imports_only_algebra():
    core = Path(opuc.__file__).with_name("core.py")
    assert foreign_imports(core.read_text()) == []


def path_weight_calls(source):
    """The line of each call of `paths.path_weight`, by its name, an
    import alias or an attribute.  Listings form their weights in the
    one weighted walk; path_weight is the independent check the tests
    hold the walk to."""
    tree = ast.parse(source)
    names = {"path_weight"} | {
        alias.asname for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == "path_weight" and alias.asname}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (isinstance(node.func, ast.Name) and node.func.id in names
                 or isinstance(node.func, ast.Attribute)
                 and node.func.attr == "path_weight")]


def test_path_weight_calls_are_found():
    source = ("from .paths import path_weight, path_weight as pw\n"
              "from . import paths\n"
              "def f(p, vs):\n"
              "    return (path_weight(p, vs), pw(p, vs),\n"
              "            paths.path_weight(p, vs), path_weight)\n")
    assert path_weight_calls(source) == [4, 4, 5]


def test_no_module_forms_listing_weights_outside_the_walk():
    calls = {path.name: path_weight_calls(path.read_text())
             for path in Path(opuc.__file__).parent.glob("*.py")}
    assert {name: lines for name, lines in calls.items() if lines} == {}


def _call_name(call, cls):
    # the name a call reaches; `cls(...)` inside a class is its constructor
    func = call.func
    if isinstance(func, ast.Name):
        return cls if func.id == "cls" and cls else func.id
    return func.attr if isinstance(func, ast.Attribute) else None


def _functions(tree):
    """(function, callee name, node, bound parameters) for each module-
    or class-level function; `__init__` is called by its class's name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for func in node.body:
                if not isinstance(func, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in func.decorator_list)
                yield ("%s.%s" % (node.name, func.name),
                       node.name if func.name == "__init__" else func.name,
                       func, 0 if static else 1)


def _sets(call, name, positional):
    return (any(isinstance(arg, ast.Starred) for arg in call.args)
            or any(kw.arg in (None, name) for kw in call.keywords)
            or name in positional[:len(call.args)])


def unset_defaults(sources, callers=()):
    """(function, parameter) for each defaulted parameter of a module- or
    class-level function in `sources` that no call in `sources` or
    `callers` sets, by position or by name.

    A call is matched by the callee's name; `__init__` by its class's
    name, or by `cls(...)` inside the class.  A call with *args or
    **kwargs sets every parameter, and a non-static method's first
    parameter is bound.
    """
    trees = [ast.parse(text) for text in sources]
    calls = {}
    for tree in trees + [ast.parse(text) for text in callers]:
        for node in tree.body:
            cls = node.name if isinstance(node, ast.ClassDef) else None
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    calls.setdefault(_call_name(call, cls), []).append(call)
    found = []
    for tree in trees:
        for qualname, key, func, bound in _functions(tree):
            args = func.args
            positional = [arg.arg for arg in args.posonlyargs + args.args]
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [arg.arg for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults) if default]
            found += [(qualname, name) for name in defaulted
                      if not any(_sets(call, name, positional[bound:])
                                 for call in calls.get(key, ()))]
    return found


def test_unset_defaults_are_found():
    source = ("def f(a, b=1, *, c=2, d=3):\n    return f(0, 1, d=4)\n"
              "def g(a, b=1):\n    return a\n"
              "class K:\n"
              "    def __init__(self, a, b=1, c=2):\n        self.a = a\n"
              "    @classmethod\n"
              "    def make(cls, x=0):\n        return cls(1, 2)\n"
              "    def m(self, y=0, z=1):\n        return self.m(*[y])\n"
              "    @staticmethod\n"
              "    def s(x, y=0):\n        return K.s(x, y)\n")
    assert unset_defaults([source]) == [
        ("f", "c"), ("g", "b"), ("K.__init__", "c"), ("K.make", "x")]
    assert unset_defaults([source], ["K.make(x=1)\ng(1, **{})\n"]) == [
        ("f", "c"), ("K.__init__", "c")]


def test_every_parameter_default_has_a_caller():
    # a default that no call overrides is an option that nothing uses
    tests = sorted(Path(__file__).parent.glob("*.py"))
    assert unset_defaults([path.read_text() for path in MODULES],
                          [path.read_text() for path in tests]) == []
