"""The three workloads: seeded inputs, the ops run on them, and expected outputs.

``build(qfca, workload, seed, size, golden)`` returns a ``Setup`` whose
round is a list of ``Op``.  A timed run repeats the whole round; a traced
run runs it once.  Every op's output is reduced by ``canon`` to an order-free form and
compared with each of its ``expected`` values: the independent oracle for
seeded lattices, and ``expected.json`` (recorded from the library at the
commit that introduced the benchmark, see ``record.py``) for everything else.

Inputs come only from ``random.Random`` streams named after the workload,
the seed and the input class, so one seed always gives the same inputs.
Contexts of the ``lattice`` workload are redrawn until both their FCA and
RST concept counts (counted by the oracle) fall in the class's band, so the
work per op, and with it the timing, is much the same from seed to seed.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import gen
import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")


def load_expected() -> dict:
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    canon: Callable[[object], object]
    expected: list = field(default_factory=list)  # zero-argument callables
    golden: str | None = None  # key into expected.json


@dataclass
class Setup:
    ops: list  # one round
    min_rounds: int = 2  # a timed run never stops before this many rounds
    files: list = field(default_factory=list)  # context files written for the cli


def check(op: Op, out, golden: dict) -> bool:
    got = op.canon(out)
    wanted = [f() for f in op.expected]
    if op.golden is not None:
        wanted.append(golden.get(op.golden))
    return bool(wanted) and all(got == w for w in wanted)


def _preset(qfca, spec):
    params = {k: v for k, v in spec.items() if k != "name"}
    return qfca.build_preset(spec["name"], **params)


def _preset_label(spec) -> str:
    return " ".join([spec["name"]] + [f"{k}={v}" for k, v in spec.items() if k != "name"])


# -- lattice ------------------------------------------------------------------------

TWO = {"name": "two"}
LUK5 = {"name": "lukasiewicz-chain", "n": 5}
CHAIN4 = {"name": "frame-diagonal", "chain": 4}
BOOL2 = {"name": "frame-diagonal", "boolean": 2}

# class -> (quantaloid, shape, rows x cols, contexts per seed, FCA band, RST band).
# Sorted by cost, a round of 74 ops is the sparse classes (28 ops), 10x10
# (24), 11x11 (12), 5x5 (8) and the reference (2): the median falls in the
# middle of the 10x10 ops and p75 among the 11x11 ones.  Many contexts per
# class keep those two from hanging on a few draws, so they stay put when
# the seed changes.
LATTICE_CLASSES = {
    "full": {
        "two-10x10": (TWO, "discrete", 10, 12, (42, 48), (42, 48)),
        "two-11x11": (TWO, "discrete", 11, 6, (58, 66), (58, 66)),
        "luk5-5x5": (LUK5, "discrete", 5, 4, (90, 115), (90, 115)),
        "chain4-8x8": (CHAIN4, "sparse", 8, 8, (20, 30), (20, 34)),
        "bool2-8x8": (BOOL2, "sparse", 8, 6, (20, 26), (16, 24)),
    },
    "smoke": {
        "two-4x4": (TWO, "discrete", 4, 1, (1, 99), (1, 99)),
        "luk5-2x2": (LUK5, "discrete", 2, 1, (1, 99), (1, 99)),
        "chain4-3x3": (CHAIN4, "sparse", 3, 1, (1, 99), (1, 99)),
        "bool2-3x3": (BOOL2, "sparse", 3, 1, (1, 99), (1, 99)),
    },
}

# ROADMAP's reference context: random 14x14 over `two`, seed 3, row-major.
REFERENCE = ("ref-14x14-seed3", 14, 3)
SMOKE_REFERENCE = ("ref-6x6-seed3", 6, 3)


def _draw(tables, shape, n, rnd, name):
    if shape == "discrete":
        return gen.discrete(tables, n, n, rnd, name=name)
    return gen.sparse(tables, n, n, rnd, density=0.05, fill=0.3, name=name)


def _banded(qfca, Q, tables, cls, spec, seed):
    _q, shape, n, count, fca_band, rst_band = spec
    rnd = random.Random(f"lattice/{seed}/{cls}")
    out = []
    for _ in range(2000):
        draw = _draw(tables, shape, n, rnd, f"{cls}#{len(out)}")
        if fca_band[0] <= draw.ctx.count("fca") <= fca_band[1] and \
                rst_band[0] <= draw.ctx.count("rst") <= rst_band[1]:
            out.append((gen.build(qfca, Q, draw), draw.ctx))
            if len(out) == count:
                return out
    raise RuntimeError(f"no {cls} context in band after 2000 draws")


def _summary(form):
    return {"concepts": sum(len(t["concepts"]) for t in form.values()),
            "digest": oracle.digest(form)}


def lattice_canon(base_objects):
    return lambda doc: _summary(oracle.canonical_lattice_json(doc, base_objects))


def oracle_lattice(ctx, kind):
    """The oracle's summary of one lattice, computed on first use."""
    return functools.cache(lambda: _summary(ctx.canonical(kind)))


def lattice_ops(qfca, phi, ctx, label, golden=False):
    ops = []
    for kind in ("fca", "rst"):
        base = phi.dom.objects if kind == "fca" else phi.cod.objects
        ops.append(Op(
            name=f"{label}/{kind}",
            # Looked up on the package at call time, so traced runs see wrappers.
            run=lambda kind=kind, phi=phi: qfca.lattice_to_json(
                (qfca.fca_lattice if kind == "fca" else qfca.rst_lattice)(phi)),
            canon=lattice_canon(base),
            expected=[oracle_lattice(ctx, kind)],
            golden=f"lattice/{label}/{kind}" if golden else None,
        ))
    return ops


def build_lattice(qfca, seed, size):
    presets = {}
    ops = []
    for cls, spec in LATTICE_CLASSES[size].items():
        key = _preset_label(spec[0])
        if key not in presets:
            Q = _preset(qfca, spec[0])
            presets[key] = (Q, oracle.Tables(Q))
        Q, tables = presets[key]
        for phi, ctx in _banded(qfca, Q, tables, cls, spec, seed):
            ops += lattice_ops(qfca, phi, ctx, phi.name)
    label, n, ref_seed = REFERENCE if size == "full" else SMOKE_REFERENCE
    Q, tables = presets[_preset_label(TWO)]
    draw = gen.discrete(tables, n, n, random.Random(ref_seed), name=label)
    ops += lattice_ops(qfca, gen.build(qfca, Q, draw), draw.ctx, label, golden=True)
    random.Random(f"lattice/{seed}/order").shuffle(ops)
    return Setup(ops, 1)


# -- verify -------------------------------------------------------------------------

PRESET_OPS = {
    "full": [{"name": "lukasiewicz-chain", "n": 16}, {"name": "lukasiewicz-chain", "n": 32},
             {"name": "godel-chain", "n": 16}, {"name": "frame-diagonal", "boolean": 3},
             {"name": "frame-diagonal", "chain": 5}],
    "smoke": [{"name": "lukasiewicz-chain", "n": 4}, {"name": "frame-diagonal", "chain": 2}],
}
VERIFY_QUANTALOIDS = [TWO, {"name": "lukasiewicz-chain", "n": 3},
                      {"name": "lukasiewicz-chain", "n": 4}, {"name": "godel-chain", "n": 3},
                      {"name": "frame-diagonal", "chain": 3}, BOOL2]
# carrier sizes: rows x cols of the contexts per quantaloid, and the
# density-suite carrier (kept at 2 objects: its cost grows with |P(A)|^2).
VERIFY_SHAPE = {"full": (3, 2), "smoke": (2, 1)}
# contexts of each kind (discrete, sparse) per quantaloid.  Two, so that the
# median op does not hang on a few draws.  Not more: a round has 5 + 3 per
# context-pair slow ops (presets, the Lukasiewicz complement route and
# representations) above a cliff, and p95 must stay above that cliff, where
# with three or four it sat on or just below it and moved with the seed.
VERIFY_CONTEXTS = {"full": 2, "smoke": 1}


def _preset_result(qfca, spec):
    Q = _preset(qfca, spec)
    fam = qfca.find_cyclic_dualizing_family(Q)
    tables = {f"{p}|{q}|{r}": [list(row) for row in t] for (p, q, r), t in Q.compose_table.items()}
    homs = {f"{p}|{q}": [list(h.elements), sorted(map(list, h.leq_pairs))]
            for (p, q), h in Q.homs.items()}
    return {"family": fam and [fam.cyclic, fam.dualizing, fam.labels(Q)],
            "tables": oracle.digest([homs, tables, Q.units])}


def _report(r):
    return oracle.canonical_report(r.to_json())


def _oracle_report(qfca, phi, kind):
    """brute_force_fixed against the closure lattice, per type."""
    compute = qfca.fca_lattice if kind == "fca" else qfca.rst_lattice
    per_type = compute(phi).per_type()
    conditions = []
    for q in phi.q.objects:
        brute = {p.key() for p in qfca.brute_force_fixed(phi, kind, q)}
        conditions.append([f"{kind}@{q}", brute == {p.key() for p in per_type[q]}])
    return {"passed": all(ok for _, ok in conditions), "conditions": sorted(conditions)}


def verify_context_ops(qfca, phi, qname, fam):
    R = qfca.represent

    def fca_rep():
        d, F, G = R.canonical_fca_data(phi)
        return R.verify_fca_representation(phi, d.X, F, G, assume_complete=True)

    def rst_rep():
        d, F, G, rc = R.canonical_rst_data(phi)
        return R.verify_rst_representation(phi, d.X, F, G, rc, assume_complete=True)

    runs = {
        "rst-as-fca": lambda: _report(qfca.verify_rst_as_fca(phi)),
        "adjunction-laws": lambda: _report(R.verify_adjunction_laws(phi)),
        "oracle-fca": lambda: _oracle_report(qfca, phi, "fca"),
        "oracle-rst": lambda: _oracle_report(qfca, phi, "rst"),
        "elementary-identities": lambda: _report(R.verify_elementary_identities(phi)),
        "fca-representation": lambda: _report(fca_rep()),
        "rst-representation": lambda: _report(rst_rep()),
    }
    if fam is not None:
        runs["rst-as-fca-complement"] = lambda: _report(qfca.verify_rst_as_fca_complement(phi, fam))
    return [Op(name=f"{phi.name}/{kind}", run=run, canon=lambda r: r,
               golden=f"verify/{kind}/{qname}") for kind, run in runs.items()]


def build_verify(qfca, seed, size):
    ops = []
    for spec in PRESET_OPS[size]:
        label = _preset_label(spec)
        ops.append(Op(name=f"preset/{label}", run=lambda spec=spec: _preset_result(qfca, spec),
                      canon=lambda r: r, golden=f"preset/{label}"))
    n, dn = VERIFY_SHAPE[size]
    for spec in VERIFY_QUANTALOIDS:
        Q = _preset(qfca, spec)
        tables = oracle.Tables(Q)
        fam = qfca.find_cyclic_dualizing_family(Q)
        fam = fam if fam is not None and fam.dualizing else None
        qname = _preset_label(spec)
        rnd = random.Random(f"verify/{seed}/{qname}")
        for k in range(VERIFY_CONTEXTS[size]):
            if Q.one_object:
                disc = gen.discrete(tables, n, n, rnd, name=f"{qname}/discrete{k}")
            else:  # no preorder edges: the unit on the diagonal, bottom elsewhere
                disc = gen.sparse(tables, n, n, rnd, density=0.0, name=f"{qname}/discrete{k}")
            sparse = gen.sparse(tables, n, n, rnd, density=0.3, name=f"{qname}/sparse{k}")
            for draw in (disc, sparse):
                ops += verify_context_ops(qfca, gen.build(qfca, Q, draw), qname, fam)
        small = gen.sparse(tables, dn, dn, rnd, density=0.3, name=f"{qname}/small")
        A = gen.build(qfca, Q, small).dom
        ops.append(Op(name=f"{qname}/density", canon=lambda r: r,
                      run=lambda A=A: _report(qfca.represent.verify_density_suite(A)),
                      golden=f"verify/density-suite/{qname}"))
    random.Random(f"verify/{seed}/order").shuffle(ops)
    return Setup(ops)


# -- cli ----------------------------------------------------------------------------

CLI_COMMANDS = [
    ["validate"],
    ["concepts", "--mode", "fca"], ["concepts", "--mode", "rst"],
    ["concepts", "--mode", "fca", "--out", "dot"], ["concepts", "--mode", "rst", "--out", "dot"],
    ["concepts", "--mode", "fca", "--oracle"], ["concepts", "--mode", "rst", "--oracle"],
    ["girard"], ["tr"],
] + [["verify", "--prop", p] for p in [
    "k-eq-m-tr", "k-eq-m-neg", "isbell-adjunction", "kan-adjunction", "yoneda", "dense-cond",
    "elementary-identities", "thm33", "thm51", "mphi-rep", "kphi-rep", "elementary-rep",
    "girard-probe"]] + [
    ["verify", "--prop", "thm33", "--data", "kind=rst"],
    ["verify", "--prop", "thm51", "--data", "kind=rst"],
    ["verify", "--prop", "elementary-rep", "--data", "kind=rst"],
]
CLI_FILES = {"full": ["fix_2id.json", "fix_dl3.json", "fix_l3.json", "godel3.json"],
             "smoke": ["fix_l3.json"]}
# seeded context files: (quantaloid, shape, size)
CLI_GENERATED = {"full": [(TWO, "discrete", 6), ({"name": "frame-diagonal", "chain": 3}, "sparse", 4)],
                 "smoke": [(TWO, "discrete", 3)]}


def cli_canonical(command: str, stdout: bytes):
    """Order-free form of one subcommand's stdout."""
    if command == "concepts" and not stdout.lstrip().startswith(b"{"):
        return oracle.canonical_lattice_dot(stdout.decode())
    doc = json.loads(stdout)
    if command == "concepts":
        return oracle.canonical_lattice_json(doc)
    if command == "verify":
        return oracle.canonical_report(doc)
    if command == "validate":
        return {"ok": doc["ok"], "reports": sorted(
            [r["subject"], r["ok"], sorted(i["code"] for i in r["issues"])] for r in doc["reports"])}
    if command == "tr":
        return {"distributor": doc["distributor"],
                "members": sorted(json.dumps(m, sort_keys=True) for m in doc["residual_members"]),
                "context": sorted(map(tuple, doc["residual_context"]))}
    return doc


def run_cli(args, trace_file=None):
    """One command in a fresh interpreter, run as ``python -m qfca.cli`` would
    be but under ``cli_probe.py``, which reports the process's peak memory
    (and with ``trace_file`` traces it).  Returns (exit code, stdout bytes,
    peak resident set in kB, or None where the system does not tell).
    """
    argv = [sys.executable, os.path.join(HERE, "cli_probe.py")]
    if trace_file is not None:
        argv += ["--trace", trace_file]
    proc = subprocess.run(argv + args, cwd=ROOT, capture_output=True, timeout=120)
    last = proc.stderr.rstrip().rsplit(b"\n", 1)[-1].split()
    peak_kb = int(last[1]) if len(last) == 2 and last[0] == b"peak_rss_kb" else None
    return proc.returncode, proc.stdout, peak_kb


@dataclass
class CliOp(Op):
    args: list = field(default_factory=list)


def _cli_op(name, args, canon, **kw):
    return CliOp(name=name, run=lambda: run_cli(args), canon=canon, args=args, **kw)


def cli_result_canon(command, lattice_base=None):
    def canon(result):
        code, stdout, _peak_kb = result
        if code != 0:
            return {"exit": code}
        if lattice_base is not None:
            return {"exit": 0, "lattice": lattice_canon(lattice_base)(json.loads(stdout))}
        return {"exit": 0, "digest": oracle.digest(cli_canonical(command, stdout))}
    return canon


def build_cli(qfca, seed, size, golden):
    ops = []
    for fname in CLI_FILES[size]:
        path = os.path.join("contexts", fname)
        for command in CLI_COMMANDS:
            key = f"cli/{fname}/{' '.join(command)}"
            if golden is not None and key not in golden:
                continue  # not applicable to this file (documented exit 2)
            ops.append(_cli_op(key, [command[0], path] + command[1:],
                               cli_result_canon(command[0]), golden=key))
    os.makedirs(OUT_DIR, exist_ok=True)
    files = []
    for k, (spec, shape, n) in enumerate(CLI_GENERATED[size]):
        Q = _preset(qfca, spec)
        tables = oracle.Tables(Q)
        rnd = random.Random(f"cli/{seed}/{k}")
        draw = _draw(tables, shape, n, rnd, "phi")
        phi, ctx = gen.build(qfca, Q, draw), draw.ctx
        path = os.path.join(OUT_DIR, f"cli-seed{seed}-{k}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(gen.context_document(spec, phi), fh)
        files.append(path)
        rel = os.path.relpath(path, ROOT)
        for kind in ("fca", "rst"):
            base = phi.dom.objects if kind == "fca" else phi.cod.objects
            expect = oracle_lattice(ctx, kind)
            ops.append(_cli_op(f"cli/generated-{k}/concepts {kind}",
                               ["concepts", rel, "--mode", kind],
                               cli_result_canon("concepts", base),
                               expected=[lambda e=expect: {"exit": 0, "lattice": e()}]))
    random.Random(f"cli/{seed}/order").shuffle(ops)
    return Setup(ops, 1, files)


def build(qfca, workload, seed, size, golden):
    if workload == "lattice":
        return build_lattice(qfca, seed, size)
    if workload == "verify":
        return build_verify(qfca, seed, size)
    if workload == "cli":
        return build_cli(qfca, seed, size, golden)
    raise ValueError(f"unknown workload {workload!r}")
