"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps every public function and method (and every
``__init__``) of each qgroupoid layer module in a span, and patches
every binding of a wrapped function in the qgroupoid package: ``cli``
imports ``verify_regular_mha`` by name, and that copy is traced too.
The arithmetic operators of ``Scalar`` are counted, not timed: a span
costs more than the multiplication it would measure.

Spans are aggregated in memory as they close.  A layer's self time is
the time its spans cover minus the time their child spans cover, so the
self times of all layers add up to the time covered by outermost spans;
the rest of a pass is the untraced remainder (the benchmark's own code).
An operation's seconds count only its outermost call, so recursion and
nested calls of one group (``twosided_rn_modifier`` calls
``crossed_rn_modifier``) are not counted twice.
"""

import functools
import inspect
import sys
import time
import types

LAYERS = (
    "exact_linear",
    "algebra_core",
    "balanced_tensor",
    "bialgebroid",
    "integration",
    "structure_theory",
    "modification",
    "examples",
    "cli",
)

# operations reported under a shared name, and the functions in each
GROUPS = {
    "modification.rn_modifier": (
        "groupoid_rn_modifier", "crossed_rn_modifier", "twosided_rn_modifier",
    ),
    "examples.build": (
        "build_function_algebroid", "build_convolution_algebroid",
        "build_tensor_algebroid", "build_crossed_product", "build_two_sided",
        "build_group_hopf",
    ),
}


class Stat:
    __slots__ = ("count", "seconds", "depth")

    def __init__(self):
        self.count = 0
        self.seconds = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self.job = None  # name of the running job, set by the pass runner
        self.stats = {}  # "layer.Class.method" or group name -> Stat
        self.self_s = [0.0] * len(LAYERS)
        self.covered_s = [0.0]  # time inside outermost spans
        self.scalar = [0, 0, 0, 0]  # mul, mul with a radical, add, inverse
        self.sums = {}  # values observed by the hooks
        self.factorized = set()
        self._stack = []  # child time of each open span
        self._undo = []

    # -- installation --------------------------------------------------

    def install(self):
        import qgroupoid  # noqa: F401
        from qgroupoid.exact_linear import Scalar

        group_of = {f: g for g, names in GROUPS.items() for f in names}
        hooks = self._hooks()
        modules = [sys.modules["qgroupoid." + name] for name in LAYERS]
        for layer, mod in enumerate(modules):
            short = LAYERS[layer]
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType) and not name.startswith("_"):
                    key = "%s.%s" % (short, name)
                    stats = [self._stat(key)]
                    if name in group_of:
                        stats.append(self._stat(group_of[name]))
                    self._rebind(obj, self._span(obj, layer, stats, hooks.get(key)))
                elif inspect.isclass(obj) and obj is not Scalar:
                    self._wrap_class(obj, layer, "%s.%s" % (short, name), hooks)
        self._count_scalars(Scalar)

    def uninstall(self):
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _stat(self, key):
        return self.stats.setdefault(key, Stat())

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _rebind(self, original, wrapped):
        for modname, mod in list(sys.modules.items()):
            if modname == "qgroupoid" or modname.startswith("qgroupoid."):
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapped)

    def _wrap_class(self, cls, layer, prefix, hooks):
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name != "__init__":
                continue
            key = "%s.%s" % (prefix, name)
            stats = [self._stat(key)]
            hook = hooks.get(key)
            if isinstance(attr, types.FunctionType):
                wrapped = self._span(attr, layer, stats, hook)
            elif isinstance(attr, (staticmethod, classmethod)):
                wrapped = type(attr)(self._span(attr.__func__, layer, stats, hook))
            elif isinstance(attr, property) and attr.fget is not None:
                wrapped = property(self._span(attr.fget, layer, stats, hook),
                                   attr.fset, attr.fdel, attr.__doc__)
            else:
                continue
            self._set(cls, name, wrapped)

    def _span(self, fn, layer, stats, after):
        stack, self_s, covered = self._stack, self.self_s, self.covered_s
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            for s in stats:
                s.depth += 1
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf() - t0
                self_s[layer] += d - stack.pop()
                if stack:
                    stack[-1] += d
                else:
                    covered[0] += d
                for s in stats:
                    s.count += 1
                    s.depth -= 1
                    if not s.depth:
                        s.seconds += d
            if after is not None:
                after(args, result)
            return result

        return span

    def _count_scalars(self, Scalar):
        c = self.scalar
        mul, add, inverse = Scalar.__mul__, Scalar.__add__, Scalar.inverse

        def counted_mul(a, b):
            c[0] += 1
            at, bt = a.terms, b.terms
            if (at and at[-1][0] != 1) or (bt and bt[-1][0] != 1):
                c[1] += 1  # terms are sorted by monomial; 1 is the rational part
            return mul(a, b)

        def counted_add(a, b):
            c[2] += 1
            return add(a, b)

        def counted_inverse(a):
            c[3] += 1
            return inverse(a)

        self._set(Scalar, "__mul__", counted_mul)
        self._set(Scalar, "__add__", counted_add)
        self._set(Scalar, "inverse", counted_inverse)

    # -- hooks: values read from arguments and results --------------------

    def _hooks(self):
        sums = self.sums

        def add(key, value):
            sums[key] = sums.get(key, 0) + value

        def rref_add(args, pivot):
            if pivot is None:
                add("rref_dependent", 1)

        def pair_built(args, _):
            t = args[0]
            add("pair_ambient", t.leg_dim ** 2)
            add("pair_dim", t.dim)

        def triple_built(args, _):
            t = args[0]
            sums["triple_ambient_max"] = max(sums.get("triple_ambient_max", 0), t.leg_dim ** 3)
            add("triple_dim", t.dim)

        def factorized(args, _):
            _, weight, omega = args
            self.factorized.add((
                self.job,
                tuple(sorted(weight.mu_B.items())),
                tuple(sorted(weight.mu_C.items())),
                tuple(sorted(omega.items())),
            ))

        def report(args, rep):
            add("report_entries", len(rep.entries))

        return {
            "exact_linear.Rref.add": rref_add,
            "balanced_tensor.BalancedTensor.__init__": pair_built,
            "balanced_tensor.TripleTensor.__init__": triple_built,
            "integration.factorize": factorized,
            "bialgebroid.verify_regular_mha": report,
            "bialgebroid.verify_star": report,
        }

    # -- metrics ----------------------------------------------------------

    def metrics(self, traced, plain):
        """Per-layer metrics of the traced pass ``traced``; ``plain`` is the
        untraced pass before it, the first pass in a fresh process."""
        st, sums = self.stats, self.sums

        def stat(key):
            return st.get(key) or Stat()

        def frac(num, den):
            return num / den if den else 0.0

        out = {}

        def put(name, value, unit):
            out[name] = {"value": value, "unit": unit}

        for layer, seconds in zip(LAYERS, self.self_s):
            put(layer + ".self_s", seconds, "s")
        mul, mul_rad, add, inv = self.scalar
        put("exact_linear.scalar_mul.count", mul, "count")
        put("exact_linear.scalar_mul_radical.count", mul_rad, "count")
        put("exact_linear.scalar_add.count", add, "count")
        put("exact_linear.scalar_inverse.count", inv, "count")

        def op(name, key, count=True, seconds=True):
            if count:
                put(name + ".count", stat(key).count, "count")
            if seconds:
                put(name + ".s", stat(key).seconds, "s")

        rref_add = stat("exact_linear.Rref.add")
        op("exact_linear.rref_add", "exact_linear.Rref.add")
        put("exact_linear.rref_add.dependent_frac",
            frac(sums.get("rref_dependent", 0), rref_add.count), "ratio")
        op("exact_linear.rref_reduce", "exact_linear.Rref.reduce", seconds=False)
        op("exact_linear.solve", "exact_linear.LinearMap.solve")
        op("exact_linear.quotient_build", "exact_linear.QuotientSpace.__init__", count=False)

        op("algebra_core.mul", "algebra_core.FiniteAlgebra.mul", seconds=False)

        bt = "balanced_tensor."
        op(bt + "pair_build", bt + "BalancedTensor.__init__")
        put(bt + "pair_ambient_dim.sum", sums.get("pair_ambient", 0), "dim")
        put(bt + "pair_dim.sum", sums.get("pair_dim", 0), "dim")
        op(bt + "triple_build", bt + "TripleTensor.__init__")
        put(bt + "triple_ambient_dim.max", sums.get("triple_ambient_max", 0), "dim")
        put(bt + "triple_dim.sum", sums.get("triple_dim", 0), "dim")
        op(bt + "descend", bt + "BalancedTensor.descend")
        op(bt + "slice", bt + "BalancedTensor.slice", count=False)
        op(bt + "mul_class", bt + "BalancedTensor.mul_class", seconds=False)
        op(bt + "relation_vectors", bt + "BalancedTensor.relation_vectors", seconds=False)

        bg = "bialgebroid."
        for name in ("verify_regular_mha", "canonical_maps", "derive_counits", "verify_star"):
            op(bg + name, bg + name, count=False)
        op(bg + "derive_antipode", bg + "derive_antipode")
        put(bg + "report_entries.count", sums.get("report_entries", 0), "count")

        ig = "integration."
        op(ig + "solve_partial_integrals", ig + "solve_partial_integrals", count=False)
        op(ig + "check_partial_integral", ig + "check_partial_integral", seconds=False)
        op(ig + "assemble_measured", ig + "assemble_measured", count=False)
        op(ig + "factorize", ig + "factorize")
        put(ig + "factorize.distinct_frac",
            frac(len(self.factorized), stat(ig + "factorize").count), "ratio")

        sth = "structure_theory."
        op(sth + "convolution", sth + "convolution")
        op(sth + "modular_automorphism", sth + "modular_automorphism", seconds=False)
        op(sth + "modular_element", sth + "modular_element", count=False)
        op(sth + "dual_algebra", sth + "dual_algebra", count=False)

        md = "modification."
        op(md + "modify", md + "modify")
        op(md + "check_modifier", md + "check_modifier", count=False)
        op(md + "rn_modifier", md + "rn_modifier", count=False)

        op("examples.build", "examples.build", count=False)
        put("cli.output_bytes", traced.output_bytes, "bytes")

        for command, seconds in sorted(plain.seconds.items()):
            put("verdict.%s_s" % command, seconds, "s")
        put("trace.wall_s", traced.wall_s, "s")
        put("cold_pass_s", plain.wall_s, "s")
        put("trace.overhead_frac", traced.wall_s / plain.wall_s - 1.0, "ratio")
        put("trace.remainder_s", traced.wall_s - self.covered_s[0], "s")
        return out
