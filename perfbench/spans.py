"""Per-layer spans for the traced run, installed from outside the program.

``install(tracer)`` replaces the public functions of each ``opuc`` layer
with wrappers that time them, in every ``opuc`` module namespace that
holds them: ``cli`` and ``matrices`` import route functions by name, so
patching the defining module alone would miss those calls.  Untraced runs
never import this module.

Spans are aggregated in memory per key.  A key's ``self_s`` is the time
inside its spans minus the time of the wrapped calls they make, so the
self times of all keys plus ``bench.self_s`` (the round's time outside
any span) add up to the round's wall time.
"""

import inspect
import sys
from time import perf_counter

# every traced run reports these keys, whether or not its workload
# reaches them, so that all workloads print the same metric names
LAYER_KEYS = (
    "algebra.mul", "algebra.add", "algebra.div", "algebra.render",
    "cli.main",
    "core.phi", "core.moments_from_phis", "core.oracle",
    "paths.lukasiewicz", "paths.gmotzkin", "paths.schroder",
    "paths.negative", "paths.enumerate", "paths.path_weight",
    "matrices.u_power_entry", "matrices.cmv_walk_entry", "matrices.matmul",
    "matrices.determinant",
    "families", "linearization",
)


class Tracer:
    def __init__(self):
        self.active = False
        self.stats = {}
        self._stack = [0.0]

    def wrap(self, fn, key, count=None):
        stats = self.stats.setdefault(key, [0, 0.0, 0])
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if count is not None:
                stats[2] += count(*args)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = stack.pop()
                stack[-1] += dt
                stats[0] += 1
                stats[1] += dt - inner

        wrapper.__wrapped__ = fn
        return wrapper

    def begin(self):
        for s in self.stats.values():
            s[:] = [0, 0.0, 0]
        self._stack[:] = [0.0]
        self.active = True
        self._t0 = perf_counter()

    def end(self):
        """Stop a round; returns (wall_s, bench_self_s, {key: stats})."""
        wall = perf_counter() - self._t0
        self.active = False
        return (wall, wall - self._stack[0],
                {k: list(v) for k, v in self.stats.items()})


def _term_products(a, b):
    nb = len(b.terms) if hasattr(b, "terms") else 1
    return len(a.terms) * nb


def _cells(a, b):
    return a.dim ** 3


def _public_functions(module):
    return [name for name, val in vars(module).items()
            if inspect.isfunction(val) and val.__module__ == module.__name__
            and not name.startswith("_")]


def install(tracer):
    """Wrap every layer's public entry points."""
    from opuc import algebra, cli, core, families, linearization, matrices
    from opuc import paths

    modules = [m for name, m in sys.modules.items()
               if name == "opuc" or name.startswith("opuc.")]

    def function(module, attr, key, count=None):
        orig = getattr(module, attr)
        wrapped = tracer.wrap(orig, key, count)
        for m in modules:
            for name, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, name, wrapped)

    def method(cls, attr, key, count=None):
        orig = cls.__dict__[attr]
        wrapped = tracer.wrap(orig, key, count)
        for name, val in list(cls.__dict__.items()):
            if val is orig:  # catches aliases such as __rmul__ = __mul__
                setattr(cls, name, wrapped)

    scalar = algebra.ExactScalar
    method(scalar, "__mul__", "algebra.mul", _term_products)
    method(scalar, "__add__", "algebra.add")
    method(scalar, "__truediv__", "algebra.div")
    method(scalar, "__rtruediv__", "algebra.div")
    method(scalar, "__str__", "algebra.render")
    function(cli, "main", "cli.main")
    function(core, "phi", "core.phi")
    function(core, "moments_from_phis", "core.moments_from_phis")
    function(core, "moment_oracle", "core.oracle")
    for model in ("lukasiewicz", "gmotzkin", "schroder", "negative"):
        function(paths, "moment_" + model, "paths." + model)
    function(paths, "enumerate_paths", "paths.enumerate")
    function(paths, "path_weight", "paths.path_weight")
    function(matrices, "u_power_entry", "matrices.u_power_entry")
    function(matrices, "cmv_walk_entry", "matrices.cmv_walk_entry")
    method(matrices.ScalarMatrix, "__mul__", "matrices.matmul", _cells)
    function(matrices, "determinant", "matrices.determinant")
    for module, key in ((families, "families"),
                        (linearization, "linearization")):
        for name in _public_functions(module):
            function(module, name, key)
    if sorted(tracer.stats) != sorted(LAYER_KEYS):
        raise RuntimeError("traced keys %s" % sorted(tracer.stats))
