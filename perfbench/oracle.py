"""Independent reference for concept lattices, on integer tables.

The library works on ``Arrow`` objects through cached residuations.  This
module rebuilds the same mathematics from a quantaloid's defining data only
(element lists, order pairs, composition table, units):

* residuations come from the join formula over the composition table;
* the fixed points of a closure are the meets of its generators, grown one
  generator at a time (every fixed point is a meet of generators, and the
  empty meet is the top vector), instead of the library's pairwise worklist;
* every result is re-checked to be a fixed point of the closure as defined
  by the two adjunctions;
* Hasse covers come from the pointwise order on value vectors, computed with
  bitsets instead of from a materialised hom matrix.

Results are compared in a canonical, order-free form: per type, the sorted
value vectors (as element labels) and the sorted cover pairs of vectors.  A
change of concept order or of labels is therefore not a mismatch; a missing,
extra or wrongly ordered concept is.
"""

from __future__ import annotations

import hashlib
import json


class Tables:
    """Integer lattice, composition and residuation tables of a quantaloid."""

    def __init__(self, Q):
        self.objects = tuple(Q.objects)
        self.labels = {pq: tuple(h.elements) for pq, h in Q.homs.items()}
        self.le = {}
        self.meet = {}
        self.join = {}
        self.top = {}
        self.bottom = {}
        for pq, h in Q.homs.items():
            n = len(h.elements)
            le = [[False] * n for _ in range(n)]
            for i, j in h.leq_pairs:
                le[i][j] = True
            self.le[pq] = le
            self.meet[pq] = [[_extremum(le, n, i, j, lower=True) for j in range(n)]
                             for i in range(n)]
            self.join[pq] = [[_extremum(le, n, i, j, lower=False) for j in range(n)]
                             for i in range(n)]
            self.top[pq] = next(k for k in range(n) if all(le[x][k] for x in range(n)))
            self.bottom[pq] = next(k for k in range(n) if all(le[k][x] for x in range(n)))
        self.comp = {pqr: tuple(tuple(row) for row in t) for pqr, t in Q.compose_table.items()}
        self.unit = dict(Q.units)
        self._limp = {}
        self._rimp = {}

    def size(self, p, q) -> int:
        return len(self.labels[(p, q)])

    def join_all(self, p, q, items) -> int:
        out = self.bottom[(p, q)]
        table = self.join[(p, q)]
        for x in items:
            out = table[out][x]
        return out

    def meet_all(self, p, q, items) -> int:
        out = self.top[(p, q)]
        table = self.meet[(p, q)]
        for x in items:
            out = table[out][x]
        return out

    def limp(self, p, q, r):
        """``t[w][u]`` = join of v in (q,r) with v.u <= w, for u in (p,q), w in (p,r)."""
        key = (p, q, r)
        if key not in self._limp:
            comp, le = self.comp[key], self.le[(p, r)]
            self._limp[key] = tuple(
                tuple(self.join_all(q, r, (v for v in range(self.size(q, r))
                                           if le[comp[v][u]][w]))
                      for u in range(self.size(p, q)))
                for w in range(self.size(p, r)))
        return self._limp[key]

    def rimp(self, p, q, r):
        """``t[v][w]`` = join of u in (p,q) with v.u <= w, for v in (q,r), w in (p,r)."""
        key = (p, q, r)
        if key not in self._rimp:
            comp, le = self.comp[key], self.le[(p, r)]
            self._rimp[key] = tuple(
                tuple(self.join_all(p, q, (u for u in range(self.size(p, q))
                                           if le[comp[v][u]][w]))
                      for w in range(self.size(p, r)))
                for v in range(self.size(q, r)))
        return self._rimp[key]


def _extremum(le, n, i, j, lower):
    if lower:
        bounds = [k for k in range(n) if le[k][i] and le[k][j]]
        return next(k for k in bounds if all(le[b][k] for b in bounds))
    bounds = [k for k in range(n) if le[i][k] and le[j][k]]
    return next(k for k in bounds if all(le[k][b] for b in bounds))


class Context:
    """A context as integers: row/column types and an entry matrix."""

    def __init__(self, tables: Tables, row_types, col_types, matrix,
                 row_labels, col_labels):
        self.t = tables
        self.ta = tuple(row_types)
        self.tb = tuple(col_types)
        self.m = tuple(tuple(r) for r in matrix)
        self.rows = tuple(row_labels)
        self.cols = tuple(col_labels)

    @staticmethod
    def of(tables: Tables, phi) -> "Context":
        """Read a library distributor's entries as integers."""
        return Context(tables, phi.dom.types, phi.cod.types,
                       [[a.index for a in row] for row in phi.matrix],
                       phi.dom.objects, phi.cod.objects)

    # -- the two closures, by definition ------------------------------------

    def fca_closure(self, q, mu):
        t, n, k = self.t, len(self.ta), len(self.tb)
        up = [t.meet_all(q, self.tb[j], (t.limp(self.ta[i], q, self.tb[j])[self.m[i][j]][mu[i]]
                                         for i in range(n)))
              for j in range(k)]
        return tuple(t.meet_all(self.ta[i], q, (t.rimp(self.ta[i], q, self.tb[j])[up[j]][self.m[i][j]]
                                                for j in range(k)))
                     for i in range(n))

    def rst_closure(self, q, lam):
        t, n, k = self.t, len(self.ta), len(self.tb)
        star = [t.join_all(self.ta[i], q, (t.comp[(self.ta[i], self.tb[j], q)][lam[j]][self.m[i][j]]
                                           for j in range(k)))
                for i in range(n)]
        return tuple(t.meet_all(self.tb[j], q, (t.limp(self.ta[i], self.tb[j], q)[star[i]][self.m[i][j]]
                                                for i in range(n)))
                     for j in range(k))

    # -- generators and fixed points ----------------------------------------

    def generators(self, kind, q):
        t = self.t
        if kind == "fca":
            base = self.ta
            gens = [tuple(t.rimp(self.ta[i], q, self.tb[j])[v][self.m[i][j]]
                          for i in range(len(self.ta)))
                    for j in range(len(self.tb)) for v in range(t.size(q, self.tb[j]))]
        else:
            base = self.tb
            gens = [tuple(t.limp(self.ta[i], self.tb[j], q)[u][self.m[i][j]]
                          for j in range(len(self.tb)))
                    for i in range(len(self.ta)) for u in range(t.size(self.ta[i], q))]
        top = tuple(t.top[(b, q)] for b in base)
        return base, top, gens

    def fixed_points(self, kind, q, verify=True) -> list[tuple[int, ...]]:
        """All fixed vectors of one type, each checked against the closure."""
        t = self.t
        base, top, gens = self.generators(kind, q)
        meets = [t.meet[(b, q)] for b in base]
        found = {top}
        for g in gens:
            found |= {tuple(m[x][y] for m, x, y in zip(meets, g, s)) for s in found}
        close = self.fca_closure if kind == "fca" else self.rst_closure
        for v in found if verify else ():
            if close(q, v) != v:
                raise AssertionError(f"reference {kind} vector {v} at {q} is not fixed")
        return sorted(found)

    def count(self, kind) -> int:
        """Concepts over all types, unverified: cheap enough to size inputs with."""
        return sum(len(self.fixed_points(kind, q, verify=False)) for q in self.t.objects)

    def canonical(self, kind) -> dict:
        """Per type: value vectors and Hasse covers, as element labels."""
        base = self.ta if kind == "fca" else self.tb
        out = {}
        for q in self.t.objects:
            vecs = self.fixed_points(kind, q)
            les = [self.t.le[(b, q)] for b in base]
            edges = hasse_covers(vecs, les)
            names = [tuple(self.t.labels[(b, q)][x] for b, x in zip(base, v)) for v in vecs]
            out[q] = {"concepts": sorted(names),
                      "hasse": sorted([names[a], names[b]] for a, b in edges)}
        return out


def hasse_covers(vecs, les):
    """Cover pairs (lower, upper) of the pointwise order, via bitsets."""
    n = len(vecs)
    if n == 0:
        return []
    # at_least[i][e]: bitset of vectors whose i-th value is >= e.
    at_least = []
    for i, le in enumerate(les):
        masks = [0] * len(le)
        for k, v in enumerate(vecs):
            for e in range(len(le)):
                if le[e][v[i]]:
                    masks[e] |= 1 << k
        at_least.append(masks)
    full = (1 << n) - 1
    above = []
    for k, v in enumerate(vecs):
        mask = full
        for i, x in enumerate(v):
            mask &= at_least[i][x]
        above.append(mask & ~(1 << k))
    edges = []
    for k in range(n):
        covered = 0
        rest = above[k]
        while rest:
            low = rest & -rest
            covered |= above[low.bit_length() - 1]
            rest ^= low
        direct = above[k] & ~covered
        while direct:
            low = direct & -direct
            edges.append((k, low.bit_length() - 1))
            direct ^= low
    return edges


# -- canonical forms of library outputs ---------------------------------------


def canonical_lattice_json(doc: dict, base_objects=None) -> dict:
    """``lattice_to_json`` output, reduced to the order-free form above.

    Vectors list values in ``base_objects`` order, or by sorted object name.
    """
    out = {}
    for q, body in doc["types"].items():
        vec = {c["label"]: tuple(c["values"][x] for x in (base_objects or sorted(c["values"])))
               for c in body["concepts"]}
        out[q] = {"concepts": sorted(vec.values()),
                  "hasse": sorted([vec[a], vec[b]] for a, b in body["hasse"])}
    return out


def canonical_lattice_dot(text: str) -> dict:
    """``lattice_to_dot`` output reduced to node texts and edges between them."""
    out = {}
    graph = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("digraph "):
            graph = json.loads(line[len("digraph "):-2])
            nodes, edges = {}, []
            out[graph] = (nodes, edges)
        elif " [label=" in line:
            name, rest = line.split(" [label=", 1)
            nodes[json.loads(name)] = json.loads(rest[:-2])
        elif " -> " in line:
            a, b = line[:-1].split(" -> ")
            edges.append((json.loads(a), json.loads(b)))
    return {g: {"concepts": sorted(nodes.values()),
                "hasse": sorted([nodes[a], nodes[b]] for a, b in edges)}
            for g, (nodes, edges) in out.items()}


def canonical_report(report_json: dict) -> dict:
    """A verifier report as ``passed`` plus its set of (condition, passed)."""
    return {"passed": report_json["passed"],
            "conditions": sorted([c["name"], c["passed"]] for c in report_json["conditions"])}


def digest(obj) -> str:
    data = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=list)
    return hashlib.sha256(data.encode()).hexdigest()[:16]

