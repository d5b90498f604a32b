"""Counting and timing wrappers around qfca's public functions.

``Tracer.install`` replaces each target in every ``qfca`` module namespace
that holds it (functions) or on its class (methods); ``uninstall`` puts the
originals back.  Untimed runs never call ``install``.

Two kinds of wrapper:

* span targets record one span per call, kept in memory as
  ``(sid, parent, name, op, start, end, n, m)``; ``n``/``m`` carry a result
  size (concepts, generators, enumerated members, report conditions);
* hot targets, the ``Quantaloid`` methods called up to a million times per
  op, only count calls, distinct argument pairs and self time, so the trace
  stays small.

Self time of a span is its duration minus the duration of its child spans.
"""

from __future__ import annotations

import functools
import sys
import time

SPAN_TARGETS = {
    "qfca.quantaloid": ["build_preset", "validate_quantaloid",
                        "find_cyclic_dualizing_family", "complement_arrow"],
    "qfca.qcat": ["Preorder.hasse_edges"],
    "qfca.qdist": ["dist_compose", "dist_left_imp", "dist_right_imp"],
    "qfca.presheaf": ["enumerate_presheaves", "enumerate_copresheaves",
                      "presheaf_hom", "copresheaf_hom", "presheaf_meet"],
    "qfca.concept": ["fca_lattice", "rst_lattice", "_meet_closure",
                     "ConceptLattice.__init__", "IsbellPair.closure", "KanPair.closure",
                     "lattice_to_json", "lattice_to_dot",
                     "ResidualCategory.__init__", "residual_context", "brute_force_fixed"],
    "qfca.represent": ["verify_general_representation", "verify_type_preserving_representation",
                       "verify_dense_representation", "verify_fca_representation",
                       "verify_rst_representation", "verify_elementary_identities",
                       "verify_elementary_representation", "quantale_corollary_check",
                       "verify_yoneda", "verify_adjunction_laws",
                       "verify_adjunction_as_functors", "verify_density_suite"],
    "qfca.cli": ["load_document", "cmd_validate", "cmd_concepts", "cmd_girard",
                 "cmd_verify", "cmd_tr"],
}

HOT_TARGETS = ["Quantaloid.compose", "Quantaloid.hom_join", "Quantaloid.hom_meet",
               "Quantaloid.left_imp", "Quantaloid.right_imp"]
RESIDUATIONS = ("Quantaloid.left_imp", "Quantaloid.right_imp")


def _sizes(name, args, result):
    """What a span's ``n``/``m`` record for this target, or zeros."""
    if name == "_meet_closure":
        return len(args[2]), 0
    if name in ("fca_lattice", "rst_lattice", "enumerate_presheaves", "enumerate_copresheaves"):
        return len(result), 0
    conditions = getattr(result, "conditions", None)
    if conditions is not None:
        return len(conditions), sum(c.detail.startswith("skipped:") for c in conditions)
    return 0, 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.hot = {name: [0, 0.0] for name in HOT_TARGETS}
        self.distinct: dict[str, set] = {name: set() for name in RESIDUATIONS}
        self.op = -1
        self._next = 0
        self._stack: list[int] = []
        self._hot_stack: list[float] = []
        self._undo: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, fn, name):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                n, m = (0, 0) if result is None else _sizes(name, args, result)
                spans.append((sid, parent, name, self.op, start, end, n, m))

        return wrapper

    def _hot(self, fn, name):
        stat, hstack = self.hot[name], self._hot_stack
        seen = self.distinct.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if seen is not None:
                seen.add((args[0].name, args[1], args[2]))
            hstack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = hstack.pop()
                stat[0] += 1
                stat[1] += dur - child
                if hstack:
                    hstack[-1] += dur

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "qfca" or name.startswith("qfca.")}
        targets = [(m, q, self._span) for m, qs in SPAN_TARGETS.items() for q in qs]
        targets += [("qfca.quantaloid", q, self._hot) for q in HOT_TARGETS]
        for mod_name, qualname, make in targets:
            owner = modules.get(mod_name)
            if owner is None:  # e.g. qfca.cli, loaded only by the command line
                continue
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._undo.append((cls, attr, original))
                setattr(cls, attr, make(original, qualname))
                continue
            original = getattr(owner, qualname)
            wrapped = make(original, qualname)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- export -------------------------------------------------------------

    def dump(self) -> dict:
        return {"spans": self.spans,
                "hot": self.hot,
                "distinct": {k: len(v) for k, v in self.distinct.items()}}


class Trace:
    """Spans and hot counters merged from one or more tracers."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.hot = {name: [0, 0.0] for name in HOT_TARGETS}
        self.distinct = {name: 0 for name in RESIDUATIONS}

    def add(self, dump: dict, op: int | None = None):
        """Merge a tracer dump; span ids are shifted, ``op`` overrides op ids."""
        base = len(self.spans) and max(s[0] for s in self.spans) + 1
        for sid, parent, name, span_op, start, end, n, m in dump["spans"]:
            self.spans.append((sid + base, parent + base if parent >= 0 else -1, name,
                               span_op if op is None else op, start, end, n, m))
        for name, (calls, self_s) in dump["hot"].items():
            self.hot[name][0] += calls
            self.hot[name][1] += self_s
        for name, count in dump["distinct"].items():
            self.distinct[name] += count

    def write(self, path):
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("sid\tparent\tname\top\tstart_s\tend_s\tn\tm\n")
            for sid, parent, name, op, start, end, n, m in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{op}\t{start - origin:.6f}\t"
                         f"{end - origin:.6f}\t{n}\t{m}\n")


# -- per-layer metrics ----------------------------------------------------------

# Span groups whose time is summed over outermost calls only, so that a
# verifier calling another verifier is not counted twice.
_GROUPS = {
    "build": ["build_preset"],
    "validate": ["validate_quantaloid"],
    "girard": ["find_cyclic_dualizing_family", "complement_arrow"],
    "calculus": ["dist_compose", "dist_left_imp", "dist_right_imp"],
    "enumerate": ["enumerate_presheaves", "enumerate_copresheaves"],
    "residual": ["ResidualCategory.__init__", "residual_context"],
    "oracle": ["brute_force_fixed"],
    "verify": SPAN_TARGETS["qfca.represent"],
}
_GROUP_OF = {name: g for g, names in _GROUPS.items() for name in names}

# name -> (unit, better); the order is the order of BENCHMARK.json.
PER_LAYER = {
    "quantaloid.build_s": ("s", "lower"),
    "quantaloid.validate_s": ("s", "lower"),
    "quantaloid.residuation.calls": ("count", "lower"),
    "quantaloid.residuation.distinct_ratio": ("ratio", "higher"),
    "quantaloid.lattice_ops.calls": ("count", "lower"),
    "quantaloid.compose.calls": ("count", "lower"),
    "quantaloid.self_s": ("s", "lower"),
    "quantaloid.girard_s": ("s", "lower"),
    "qdist.calculus.calls": ("count", "lower"),
    "qdist.calculus_s": ("s", "lower"),
    "presheaf.enumerated": ("count", "lower"),
    "presheaf.enumerate_s": ("s", "lower"),
    "presheaf.hom.calls": ("count", "lower"),
    "presheaf.hom_s": ("s", "lower"),
    "presheaf.meet.calls": ("count", "lower"),
    "presheaf.meet_s": ("s", "lower"),
    "concept.concepts": ("count", "higher"),
    "concept.generators": ("count", "higher"),
    "concept.meet_yield": ("ratio", "higher"),
    "concept.closure_s": ("s", "lower"),
    "concept.category_s": ("s", "lower"),
    "concept.fixcheck_s": ("s", "lower"),
    "qcat.hasse_s": ("s", "lower"),
    "concept.hasse_s": ("s", "lower"),
    "concept.residual_s": ("s", "lower"),
    "concept.oracle_s": ("s", "lower"),
    "represent.verify_s": ("s", "lower"),
    "represent.conditions": ("count", "higher"),
    "represent.skipped": ("count", "lower"),
    "cli.interp_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.parse_s": ("s", "lower"),
    "cli.command_s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def per_layer(trace: Trace, extra: dict) -> dict:
    """Every per-layer metric; ``extra`` supplies the cli probes and overhead.

    A layer the workload does not touch reads 0.
    """
    by_sid = {s[0]: s for s in trace.spans}
    child_time: dict[int, float] = {}
    for sid, parent, _name, _op, start, end, _n, _m in trace.spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def outermost(span) -> bool:
        group = _GROUP_OF[span[2]]
        parent = span[1]
        while parent >= 0:
            up = by_sid[parent]
            if _GROUP_OF.get(up[2]) == group:
                return False
            parent = up[1]
        return True

    calls: dict[str, int] = {}
    incl: dict[str, float] = {}
    self_s: dict[str, float] = {}
    n_sum: dict[str, int] = {}
    m_sum: dict[str, int] = {}
    fixcheck = 0.0
    closure_meets = 0
    cli_command = 0.0
    for span in trace.spans:
        sid, parent, name, _op, start, end, n, m = span
        dur = end - start
        parent_name = by_sid[parent][2] if parent >= 0 else ""
        if name in ("IsbellPair.closure", "KanPair.closure") and \
                parent_name in ("fca_lattice", "rst_lattice"):
            fixcheck += dur
        if name == "presheaf_meet" and parent_name == "_meet_closure":
            closure_meets += 1
        if name == "load_document" and parent_name.startswith("cmd_"):
            cli_command -= dur
        if name.startswith("cmd_"):
            cli_command += dur
        if name in _GROUP_OF and not outermost(span):
            continue
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(sid, 0.0)
        n_sum[name] = n_sum.get(name, 0) + n
        m_sum[name] = m_sum.get(name, 0) + m

    def total(table, *names):
        return sum(table.get(x, 0) for x in names)

    hot = trace.hot
    residuations = total({k: v[0] for k, v in hot.items()}, *RESIDUATIONS)
    concepts = total(n_sum, "fca_lattice", "rst_lattice")
    verifiers = _GROUPS["verify"]
    values = {
        "quantaloid.build_s": total(incl, "build_preset"),
        "quantaloid.validate_s": total(incl, "validate_quantaloid"),
        "quantaloid.residuation.calls": residuations,
        "quantaloid.residuation.distinct_ratio":
            sum(trace.distinct.values()) / residuations if residuations else 0.0,
        "quantaloid.lattice_ops.calls": hot["Quantaloid.hom_join"][0] + hot["Quantaloid.hom_meet"][0],
        "quantaloid.compose.calls": hot["Quantaloid.compose"][0],
        "quantaloid.self_s": sum(v[1] for v in hot.values()),
        "quantaloid.girard_s": total(incl, *_GROUPS["girard"]),
        "qdist.calculus.calls": total(calls, *_GROUPS["calculus"]),
        "qdist.calculus_s": total(incl, *_GROUPS["calculus"]),
        "presheaf.enumerated": total(n_sum, *_GROUPS["enumerate"]),
        "presheaf.enumerate_s": total(incl, *_GROUPS["enumerate"]),
        "presheaf.hom.calls": total(calls, "presheaf_hom", "copresheaf_hom"),
        "presheaf.hom_s": total(incl, "presheaf_hom", "copresheaf_hom"),
        "presheaf.meet.calls": total(calls, "presheaf_meet"),
        "presheaf.meet_s": total(incl, "presheaf_meet"),
        "concept.concepts": concepts,
        "concept.generators": total(n_sum, "_meet_closure"),
        "concept.meet_yield": concepts / closure_meets if closure_meets else 0.0,
        "concept.closure_s": total(self_s, "fca_lattice", "rst_lattice", "_meet_closure"),
        "concept.category_s": total(incl, "ConceptLattice.__init__"),
        "concept.fixcheck_s": fixcheck,
        "qcat.hasse_s": total(incl, "Preorder.hasse_edges"),
        "concept.hasse_s": total(self_s, "lattice_to_json", "lattice_to_dot"),
        "concept.residual_s": total(incl, *_GROUPS["residual"]),
        "concept.oracle_s": total(incl, "brute_force_fixed"),
        "represent.verify_s": total(incl, *verifiers),
        "represent.conditions": total(n_sum, *verifiers),
        "represent.skipped": total(m_sum, *verifiers),
        "cli.parse_s": total(incl, "load_document"),
        "cli.command_s": cli_command,
    }
    values.update(extra)
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()}
