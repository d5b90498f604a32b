"""Seeded benchmark inputs: random contexts over stock quantaloids.

Contexts are drawn as integers (``oracle.Context`` plus the carriers' hom
matrices) from a ``random.Random`` the caller seeds, and only turned into
library objects by ``build``, which validates them.  Two shapes:

* discrete: carriers ``a0..``/``b0..`` of one type, entries drawn row-major
  with ``randrange(|hom|)`` (the convention of ROADMAP's reference table, so
  ``discrete(two, 14, 14, Random(3))`` is its 230/118-concept context);
* sparse: carriers whose types are a seeded arrangement of the quantaloid's
  objects and whose homs are the top or bottom arrow along a random sparse
  preorder with a fixed number of generating edges; the
  context is ``hom_B . M . hom_A`` for a random entry matrix ``M``, which is
  the smallest distributor above ``M``.

The library only ever receives the finished, validated objects (or, for the
command line, a context file written from them).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from oracle import Context, Tables


@dataclass
class Draw:
    ctx: Context
    hom_a: list
    hom_b: list
    name: str


def _identity(t: Tables, types):
    return [[t.unit[p] if i == j else t.bottom[(p, q)] for j, q in enumerate(types)]
            for i, p in enumerate(types)]


def discrete(t: Tables, n, m, rnd, name="") -> Draw:
    """Random n x m context between discrete one-type carriers (row-major draw)."""
    (q,) = t.objects
    size = t.size(q, q)
    matrix = [[rnd.randrange(size) for _ in range(m)] for _ in range(n)]
    ta, tb = (q,) * n, (q,) * m
    ctx = Context(t, ta, tb, matrix, [f"a{i}" for i in range(n)], [f"b{j}" for j in range(m)])
    return Draw(ctx, _identity(t, ta), _identity(t, tb), name or f"discrete{n}x{m}")


def _sparse_hom(t: Tables, n, rnd, density):
    """Types, and top/bottom homs along the closure of random edges.

    The types are the quantaloid's objects taken in turn, last first, in a
    seeded order, and the number of edges is ``density`` of all pairs, so
    that carriers of one size cost alike from seed to seed.
    """
    types = [t.objects[-1 - k % len(t.objects)] for k in range(n)]
    rnd.shuffle(types)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    edges = set(rnd.sample(pairs, round(density * len(pairs))))
    rel = [[i == j or (i, j) in edges for j in range(n)] for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        if rel[i][k] and rel[k][j]:
            rel[i][j] = True
    hom = [[(t.top if rel[i][j] else t.bottom)[(types[i], types[j])] for j in range(n)]
           for i in range(n)]
    return types, hom


def sparse(t: Tables, n, m, rnd, density=0.2, fill=0.5, name="") -> Draw:
    """Random context ``hom_B . M . hom_A`` between sparse preorder carriers."""
    ta, ha = _sparse_hom(t, n, rnd, density)
    tb, hb = _sparse_hom(t, m, rnd, density)
    M = [[rnd.randrange(t.size(ta[i], tb[j])) if rnd.random() < fill
          else t.bottom[(ta[i], tb[j])] for j in range(m)] for i in range(n)]
    matrix = []
    for i2 in range(n):
        row = []
        for j2 in range(m):
            p, r = ta[i2], tb[j2]
            terms = []
            for i, j in itertools.product(range(n), range(m)):
                # hom_B(j, j2) . M(i, j) . hom_A(i2, i)
                x = t.comp[(p, ta[i], tb[j])][M[i][j]][ha[i2][i]]
                terms.append(t.comp[(p, tb[j], r)][hb[j][j2]][x])
            row.append(t.join_all(p, r, terms))
        matrix.append(row)
    ctx = Context(t, ta, tb, matrix, [f"a{i}" for i in range(n)], [f"b{j}" for j in range(m)])
    return Draw(ctx, ha, hb, name or f"sparse{n}x{m}")


def build(qfca, Q, draw: Draw):
    """The library's distributor for a draw, after validating all three parts."""
    c = draw.ctx

    def category(labels, types, hom, name):
        cat = qfca.QCategory(Q, labels, types,
                             [[qfca.Arrow(types[i], types[j], x) for j, x in enumerate(row)]
                              for i, row in enumerate(hom)], name=name)
        report = qfca.validate_category(cat)
        if not report.ok:
            raise RuntimeError(f"generated category {name} is invalid: {report.issues[:1]}")
        return cat

    A = category(c.rows, c.ta, draw.hom_a, "A")
    B = category(c.cols, c.tb, draw.hom_b, "B")
    matrix = [[qfca.Arrow(c.ta[i], c.tb[j], x) for j, x in enumerate(row)]
              for i, row in enumerate(c.m)]
    phi = qfca.QDistributor(A, B, matrix, name=draw.name)
    report = qfca.validate_distributor(phi)
    if not report.ok:
        raise RuntimeError(f"generated context {draw.name} is invalid: {report.issues[:1]}")
    return phi


def context_document(preset: dict, phi) -> dict:
    """A command-line context file holding one distributor and its carriers."""
    Q = phi.q

    def category(C):
        return {"objects": [{"label": x, "type": t} for x, t in zip(C.objects, C.types)],
                "hom": [[x, y, Q.label(C.hom_of(x, y))] for x in C.objects for y in C.objects]}

    return {
        "quantaloid": {"preset": preset},
        "categories": {"A": category(phi.dom), "B": category(phi.cod)},
        "distributors": {"phi": {
            "from": "A", "to": "B",
            "entries": [[x, y, Q.label(phi.at(x, y))]
                        for x in phi.dom.objects for y in phi.cod.objects]}},
    }
