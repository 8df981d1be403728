"""Span tracing of the so3five layers from outside the library.

``Tracer.install()`` rebinds the public functions named in ``SPANS`` in
every ``so3five.*`` namespace that binds them (``so3five.decide`` holds its
own ``require_valid``, for example), and wraps a few class hooks in place:
the dataclass ``__init__`` of ``GroupElement`` and the ``__post_init__``
checks of ``FourManifoldProfile`` and the bundle records.  ``uninstall()``
puts every original back, so untraced runs execute the library as
shipped; its source is never touched.

Each call becomes a span (name, start, end, parent span, op id) kept in
flat arrays in memory.  ``write()`` dumps them when the run ends, and
``layer_metrics(passes)`` derives self times (a span's duration minus its
child spans) and the counts the benchmark reports, per pass over the deck.  Bookkeeping done after a
call returns (coefficient sizes, distinct profiles) is recorded as a
``harness`` child span, so it is charged to no layer.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from functools import wraps
from time import perf_counter

# span name -> metric group.  Span names are "<module>.<qualified name>".
SPANS = {
    "fgab.smith_normal_form": "fgab.snf",
    "fgab.cokernel": "fgab.cokernel",
    "fgab.cokernel_with_projection": "fgab.cokernel",
    "fgab.project": "fgab.projection",
    "fgab.FgAbGroup.from_cyclic_orders": "fgab.group",
    "fgab.FgAbGroup.direct_sum": "fgab.group",
    "fgab.FgAbGroup.tensor": "fgab.group",
    "fgab.FgAbGroup.tor": "fgab.group",
    "fgab.GroupElement.__init__": "fgab.element",
    "fgab.solve_divisibility": "fgab.divisibility",
    "fgab.has_element_of_order": "fgab.divisibility",
    "fgab.tensor_reduction": "fgab.divisibility",
    "topology.validate": "topology.validate",
    "topology.require_valid": "topology.validate",
    "topology.cohomology": "topology.cohomology",
    "topology.semicharacteristic": "topology.semichar",
    "topology.kervaire_semicharacteristic": "topology.semichar",
    "topology.homology_mod2_dimension": "topology.semichar",
    "topology.cup_product": "topology.fragment",
    "topology.pontryagin_square": "topology.fragment",
    "topology.include_mod2_into_mod4": "topology.fragment",
    "topology.mod2_class_moduli": "topology.fragment",
    "topology.mod4_class_moduli": "topology.fragment",
    "topology.zero_mod2_class": "topology.fragment",
    "topology.zero_mod4_class": "topology.fragment",
    "constructors.FourManifoldProfile.__post_init__": "constructors.form_check",
    "constructors.hypersurface": "constructors.hypersurface",
    "constructors.find_euler_class": "constructors.euler_search",
    "constructors.circle_bundle": "constructors.circle_bundle",
    "constructors.connected_sum": "constructors.connected_sum",
    "constructors.product_3x2": "constructors.product_3x2",
    "constructors.catalog": "constructors.catalog",
    "charclass.tangent_bundle_classes": "charclass.tangent",
    "charclass.Bundle3Data.__post_init__": "charclass.bundle_data",
    "charclass.Bundle5Data.__post_init__": "charclass.bundle_data",
    "charclass.sym0_classes": "charclass.transfer",
    "charclass.degree5_twist": "charclass.transfer",
    "charclass.necessary_conditions": "charclass.transfer",
    "charclass.obstruction_report": "charclass.transfer",
    "decide.decide_irreducible_so3": "decide.irreducible",
    "decide.decide_two_field": "decide.two_field",
    "decide.decide_standard_so3": "decide.standard",
    "decide.rank3_bundle_exists": "decide.rank3",
    "decide.rank5_relation_holds": "decide.rank5",
    "cli.parse_recipe": "cli.parse_recipe",
}

# groups whose spans each produce a Decision
VERDICT_GROUPS = ("decide.irreducible", "decide.two_field", "decide.standard", "decide.rank3")

class Tracer:
    """In-memory span recorder; one per traced run, single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = ["op", "harness"]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.max_coeff_bits = 0
        self.euler_hits = 0
        self.box_prefixes = 0
        self.validated: set = set()
        self._restore: list = []

    # -- recording ------------------------------------------------------

    def _open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def span(self, fn, name: str, after=None):
        """fn wrapped to record one span per call; ``after(args, result)``
        runs outside the span, charged to a harness span, and may replace
        the result."""
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            i = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                h = self._open(1)
                try:
                    result = after(args, kwargs, result)
                finally:
                    self._close(h)
            return result

        return traced

    def run_op(self, fn, x):
        """fn(x) as one traced op; ops are numbered in the order they run."""
        self.op_id += 1
        i = self._open(0)
        try:
            return fn(x)
        finally:
            self._close(i)

    # -- hooks ----------------------------------------------------------

    def _after_snf(self, args, kwargs, snf):
        bits = (abs(x).bit_length() for m in (snf.U, snf.V) for row in m.entries for x in row)
        self.max_coeff_bits = max(self.max_coeff_bits, max(bits, default=0))
        return snf

    def _after_projection(self, args, kwargs, result):
        group, project = result
        return group, self.span(project, "fgab.project")

    def _after_euler(self, args, kwargs, found):
        base = args[0]
        bound = args[3] if len(args) > 3 else kwargs.get("search_bound", 3)
        self.box_prefixes += (2 * bound + 1) ** max(base.b2 - 1, 0)
        self.euler_hits += found is not None
        return found

    def _after_validate(self, args, kwargs, result):
        self.validated.add((self.op_id, args[0]))
        return result

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import so3five

        hooks = {
            "fgab.smith_normal_form": self._after_snf,
            "fgab.cokernel_with_projection": self._after_projection,
            "constructors.find_euler_class": self._after_euler,
            "topology.validate": self._after_validate,
        }
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "so3five"]
        for span_name in SPANS:
            module_name, _, rest = span_name.partition(".")
            if span_name == "fgab.project":
                continue
            owner = getattr(so3five, module_name)
            if "." in rest:
                cls_name, attr = rest.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.span(raw.__func__, span_name))
                else:
                    new = self.span(raw, span_name)
                setattr(cls, attr, new)
                self._restore.append((cls, attr, raw))
                continue
            original = getattr(owner, rest)
            traced = self.span(original, span_name, hooks.get(span_name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        """Spans as gzip CSV: name,start_s,end_s,parent,op (parent -1 = root)."""
        names, t0 = self.names, (self.start[0] if self.start else 0.0)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name,start_s,end_s,parent,op\n")
            for i in range(len(self.start)):
                f.write(
                    f"{names[self.name[i]]},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                    f"{self.parent[i]},{self.op[i]}\n"
                )

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Every group's calls, constructions and self time, and the derived
        numbers, per pass over the deck; the spans cover ``passes`` whole
        passes."""
        n = len(self.start)
        group_of = [SPANS.get(name) for name in self.names]
        child = [0.0] * n
        dur = [0.0] * n
        for i in range(n):
            d = self.end[i] - self.start[i]
            dur[i] = d
            p = self.parent[i]
            if p >= 0:
                child[p] += d
        calls = dict.fromkeys(SPANS.values(), 0)
        spans = dict.fromkeys(SPANS.values(), 0)
        self_s = dict.fromkeys(SPANS.values(), 0.0)
        for i in range(n):
            g = group_of[self.name[i]]
            if g is None:
                continue
            spans[g] += 1
            self_s[g] += dur[i] - child[i]
            p = self.parent[i]
            if p < 0 or group_of[self.name[p]] != g:
                calls[g] += 1
        out: dict[str, float] = {}
        for g in calls:
            out[f"{g}.calls"] = calls[g] // passes
            out[f"{g}.constructions"] = spans[g] // passes
            out[f"{g}.self_s"] = self_s[g] / passes
        # validations run, not entries into the group: the useful ratio's base
        validate_id = self._ids.get("topology.validate")
        validate_calls = sum(1 for i in range(n) if self.name[i] == validate_id)
        out["topology.validate.calls"] = validate_calls // passes
        out["topology.validate.useful_ratio"] = (
            len(self.validated) / validate_calls if validate_calls else 0.0
        )
        searches = calls["constructors.euler_search"]
        out["constructors.euler_search.hit_ratio"] = self.euler_hits / searches if searches else 0.0
        out["constructors.euler_search.box_prefixes"] = self.box_prefixes // passes
        out["fgab.snf.max_coeff_bits"] = self.max_coeff_bits
        out["decide.verdicts"] = sum(spans[g] for g in VERDICT_GROUPS) // passes
        return out
