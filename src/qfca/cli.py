"""Command-line surface: context files in, lattices and verdicts out.

Context files are JSON documents with fixed field names:

    {
      "quantaloid": {"preset": "two"}                      -- or inline:
                    {"objects": [...],
                     "homs": {"p->q": {"elements": [...], "leq": [[a,b], ...]}},
                     "compose": [[v, u, w], ...],
                     "units": {"q": label}},
      "categories": {NAME: {"objects": [{"label": .., "type": ..}],
                            "hom": [[x, y, arrow], ...]}},
      "distributors": {NAME: {"from": .., "to": .., "entries": [[x, y, arrow], ...]}},
      "functors": {NAME: {"from": .., "to": .., "map": {x: y}}}
    }

Omitted category hom and distributor entries default to the bottom arrow and
are then validated.  ``leq`` pairs are closed reflexively and transitively.
In ``compose`` triples an arrow is written either as a bare element label
(allowed when unique across all homs) or qualified as ``"p->q:label"``;
missing compose pairs default to the bottom arrow.  Presets take parameters
inline: {"preset": {"name": "lukasiewicz-chain", "n": 3}}.  The preset
``commutative-quantale-from-table`` checks only the quantale laws, so it
accepts a noncommutative table.

Exit codes: 0 success/pass, 1 validation failure, 2 usage or precondition
error, 3 property-verification failure, 4 budget exhausted (an enumeration,
search or closure cap was reached; the ``BudgetExceeded`` message names the
cap, its limit and the count).  The computing subcommands refuse any
document that ``validate`` rejects: they print the failing validation
reports and exit 1 without computing on it.  A document of the wrong shape
(a field of the wrong JSON type, or a required field missing) is a usage
error naming the field's JSON path.  Outputs are deterministic: repeated
runs on the same input are byte-identical.  An inline quantaloid with a
hom that is not a complete lattice is refused before its categories are
read, by ``validate`` too.  The environment variable QFCA_BUDGET replaces
all enumeration, search and closure caps at once.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

from .errors import (
    BudgetExceeded,
    HypothesesNotMet,
    InvalidParams,
    NotAQuantale,
    NotGirard,
    QfcaError,
    Report,
    ValidationFailed,
    _Record,
)
from .quantaloid import (
    Arrow,
    HomLattice,
    Quantaloid,
    build_preset,
    find_cyclic_dualizing_family,
    validate_quantaloid,
)
from .qcat import QCategory, QFunctor, validate_category, validate_functor
from .qdist import QDistributor, validate_distributor
from .presheaf import presheaf_label
from .concept import (
    _json_to_dot,
    brute_force_fixed,
    closure_pair,
    codense_probe,
    lattice_to_json,
    residual_category,
    residual_context,
    verify_rst_as_fca,
    verify_rst_as_fca_complement,
)
from .represent import (
    canonical_dense_data,
    canonical_elementary_data,
    canonical_fca_data,
    canonical_general_data,
    canonical_rst_data,
    verify_adjunction_as_functors,
    verify_adjunction_laws,
    verify_dense_representation,
    verify_density_suite,
    verify_elementary_identities,
    verify_elementary_representation,
    verify_fca_representation,
    verify_general_representation,
    verify_rst_representation,
    verify_yoneda,
)


class UsageError(QfcaError):
    """Bad command-line data: unknown names, missing sections, bad references."""


# The exit code of each error class, the first match winning; the module
# docstring lists what each code means.
_EXIT_CODES = (
    (ValidationFailed, 1),
    ((UsageError, InvalidParams, NotGirard, NotAQuantale, HypothesesNotMet, OSError), 2),
    (BudgetExceeded, 4),
    (QfcaError, 1),
)


class ContextDocument(_Record):
    _fields = ("quantaloid", "quantaloid_spec", "categories", "distributors", "functors")

    def __init__(self, quantaloid: Quantaloid, quantaloid_spec: dict, categories: dict,
                 distributors: dict, functors: dict):
        self._set(quantaloid, quantaloid_spec, categories, distributors, functors)

    def __eq__(self, other) -> bool:
        return (isinstance(other, ContextDocument)
                and serialize_document(self) == serialize_document(other))


# -- parsing ---------------------------------------------------------------------


@contextlib.contextmanager
def _naming(where: str):
    """Re-raise an InvalidParams as a UsageError naming the section and entry ``where``."""
    try:
        yield
    except InvalidParams as e:
        raise UsageError(f"{where}: {e}") from None


def _parse_arrow_ref(objects, homs: dict, ref: str) -> Arrow:
    """Resolve 'p->q:label' or a bare label that is unique across all homs."""
    if ":" in ref and "->" in ref.split(":", 1)[0]:
        hom, label = ref.split(":", 1)
        p, q = hom.split("->", 1)
        if (p, q) not in homs:
            raise UsageError(f"arrow {ref!r} names the unknown hom {hom!r}")
        return Arrow(p, q, homs[(p, q)].index(label))
    hits = [Arrow(p, q, i) for p, q in itertools.product(objects, repeat=2)
            for i, label in enumerate(homs[(p, q)].elements) if label == ref]
    if not hits:
        raise UsageError(f"no arrow labelled {ref!r} in the quantaloid")
    if len(hits) > 1:
        raise UsageError(f"arrow label {ref!r} is ambiguous; qualify it as 'p->q:{ref}'")
    return hits[0]


def _parse_quantaloid(spec: dict) -> Quantaloid:
    if "preset" in spec:
        preset = spec["preset"]
        if isinstance(preset, str):
            return build_preset(preset)
        params = {k: v for k, v in preset.items() if k != "name"}
        return build_preset(preset["name"], **params)
    objects = list(spec["objects"])
    homs = {}
    for key, h in spec["homs"].items():
        if "->" not in key:
            raise UsageError(f"hom section {key!r} is not named 'p->q'")
        p, q = key.split("->", 1)
        for x in (p, q):
            if x not in objects:
                raise UsageError(f"hom section {key!r} names the undeclared object {x!r}")
        with _naming(f"hom section {key!r}"):
            homs[(p, q)] = HomLattice.from_labels(h["elements"], h.get("leq", []))
    for p, q in itertools.product(objects, repeat=2):
        if (p, q) not in homs:
            raise UsageError(f"missing hom section '{p}->{q}'")
    units = {}
    for q, label in spec["units"].items():
        if (q, q) not in homs:
            raise UsageError(f"units name the unknown object {q!r}")
        with _naming(f"units {q!r}"):
            units[q] = homs[(q, q)].index(label)
    tables = {}
    for p, q, r in itertools.product(objects, repeat=3):
        dom, mid, cod = homs[(p, q)], homs[(q, r)], homs[(p, r)]
        # the quantaloid refuses a hom without a bottom before it reads a composite
        tables[(p, q, r)] = [[cod.bottom or 0] * len(dom) for _ in range(len(mid))]
    for v_ref, u_ref, w_ref in spec.get("compose", []):
        with _naming(f"compose triple [{v_ref},{u_ref},{w_ref}]"):
            v, u, w = (_parse_arrow_ref(objects, homs, ref) for ref in (v_ref, u_ref, w_ref))
        if u.dst != v.src or (w.src, w.dst) != (u.src, v.dst):
            raise UsageError(f"compose triple [{v_ref},{u_ref},{w_ref}] is not composable")
        tables[(u.src, u.dst, v.dst)][v.index][u.index] = w.index
    return Quantaloid(objects, homs, tables, units, name=spec.get("name", "inline"))


def _parse_category(Q: Quantaloid, name: str, spec: dict) -> QCategory:
    labels = [o["label"] for o in spec["objects"]]
    types = [o["type"] for o in spec["objects"]]
    for t in types:
        if t not in Q.objects:
            raise UsageError(f"category {name!r}: unknown type {t!r}")
    index = {x: i for i, x in enumerate(labels)}
    hom = [[Q.bottom(types[i], types[j]) for j in range(len(labels))]
           for i in range(len(labels))]
    for x, y, ref in spec.get("hom", []):
        if x not in index or y not in index:
            raise UsageError(f"category {name!r}: unknown object in hom entry [{x},{y}]")
        i, j = index[x], index[y]
        with _naming(f"category {name!r}: hom entry [{x},{y},{ref}]"):
            hom[i][j] = Q.arrow(types[i], types[j], ref)
    with _naming(f"category {name!r}"):
        return QCategory(Q, labels, types, hom, name=name)


def _endpoints(categories: dict, what: str, spec: dict) -> tuple:
    """The categories that ``spec``'s "from" and "to" fields name."""
    for end in ("from", "to"):
        if spec[end] not in categories:
            raise UsageError(f"{what}: unknown category {spec[end]!r}")
    return categories[spec["from"]], categories[spec["to"]]


def parse_document(data: dict) -> ContextDocument:
    Q = _parse_quantaloid(data["quantaloid"])
    categories = {}
    for name in sorted(data.get("categories", {})):
        categories[name] = _parse_category(Q, name, data["categories"][name])
    distributors = {}
    for name in sorted(data.get("distributors", {})):
        spec = data["distributors"][name]
        A, B = _endpoints(categories, f"distributor {name!r}", spec)
        matrix = [[Q.bottom(A.types[i], B.types[j]) for j in range(len(B))]
                  for i in range(len(A))]
        for x, y, ref in spec.get("entries", []):
            with _naming(f"distributor {name!r}: entry [{x},{y},{ref}]"):
                i, j = A.index(x), B.index(y)
                matrix[i][j] = Q.arrow(A.types[i], B.types[j], ref)
        distributors[name] = QDistributor(A, B, matrix, name=name)
    functors = {}
    for name in sorted(data.get("functors", {})):
        spec = data["functors"][name]
        A, B = _endpoints(categories, f"functor {name!r}", spec)
        with _naming(f"functor {name!r}"):
            functors[name] = QFunctor(A, B, dict(spec["map"]), name=name)
    return ContextDocument(Q, data["quantaloid"], categories, distributors, functors)


class _AnyOf(tuple):
    """Alternative shapes for one field."""


# The shape of a context document.  ``str`` is a JSON string, ``[s]`` a list
# of s, a tuple a list of exactly those entries, a dict an object whose listed
# keys have those shapes ("*" for every other key; without "*" other keys are
# ignored).  Under _REQUIRED, which no JSON key equals, a dict lists the keys
# the object must have, or an _AnyOf of such lists; the last names a missing key.
_REQUIRED = object()
_TRIPLE = (str, str, str)
_DOCUMENT_SHAPE = {
    _REQUIRED: ("quantaloid",),
    "quantaloid": {
        _REQUIRED: _AnyOf((("preset",), ("objects", "homs", "units"))),
        "preset": _AnyOf((str, {_REQUIRED: ("name",), "name": str, "elements": [str],
                                "leq": [(str, str)], "products": [_TRIPLE], "unit": str})),
        "objects": [str],
        "homs": {"*": {_REQUIRED: ("elements",), "elements": [str], "leq": [(str, str)]}},
        "compose": [_TRIPLE],
        "units": {"*": str},
        "name": str,
    },
    "categories": {"*": {_REQUIRED: ("objects",), "hom": [_TRIPLE],
                         "objects": [{_REQUIRED: ("label", "type"), "label": str, "type": str}]}},
    "distributors": {"*": {_REQUIRED: ("from", "to"), "from": str, "to": str,
                           "entries": [_TRIPLE]}},
    "functors": {"*": {_REQUIRED: ("from", "to", "map"), "from": str, "to": str,
                       "map": {"*": str}}},
}


def _shape_name(shape) -> str:
    if isinstance(shape, _AnyOf):
        return " or ".join(map(_shape_name, shape))
    if shape is str:
        return "a string"
    if isinstance(shape, tuple):
        return f"a list of {len(shape)}"
    return "a list" if isinstance(shape, list) else "an object"


def _fits(value, shape) -> bool:
    """Whether the value has the shape's JSON kind (entries are checked apart)."""
    if isinstance(shape, _AnyOf):
        return any(_fits(value, alt) for alt in shape)
    if shape is str:
        return isinstance(value, str)
    if isinstance(shape, dict):
        return isinstance(value, dict)
    return isinstance(value, list) and (isinstance(shape, list) or len(value) == len(shape))


def _check_shape(value, shape, path: str = "$") -> None:
    """Raise a UsageError naming the JSON path of the first misshapen field."""
    if not _fits(value, shape):
        got = {list: "a list", dict: "an object"}.get(type(value)) or json.dumps(value)
        raise UsageError(f"{path} must be {_shape_name(shape)}, got {got}")
    if isinstance(shape, _AnyOf):
        _check_shape(value, next(alt for alt in shape if _fits(value, alt)), path)
    elif isinstance(shape, dict):
        required = shape.get(_REQUIRED, ())
        options = required if isinstance(required, _AnyOf) else (required,)
        if not any(all(key in value for key in keys) for keys in options):
            missing = next(key for key in options[-1] if key not in value)
            raise UsageError(f"{path} misses the required field {missing!r}")
        for key, item in value.items():
            sub = shape.get(key, shape.get("*"))
            if sub is not None:
                step = f".{key}" if key.isidentifier() else f"[{json.dumps(key)}]"
                _check_shape(item, sub, path + step)
    elif isinstance(shape, list):
        for i, item in enumerate(value):
            _check_shape(item, shape[0], f"{path}[{i}]")
    elif isinstance(shape, tuple):
        for i, (item, sub) in enumerate(zip(value, shape)):
            _check_shape(item, sub, f"{path}[{i}]")


def load_document(path: str) -> ContextDocument:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as e:  # undecodable bytes or malformed JSON
            raise UsageError(f"{path} is not valid JSON: {e}") from None
    _check_shape(data, _DOCUMENT_SHAPE)
    return parse_document(data)


def _validation_reports(doc: ContextDocument, quantaloid: bool = True) -> list:
    """The report of every validator on the document, in the order ``validate``
    prints them; ``quantaloid=False`` leaves out the quantaloid's own."""
    reports = [validate_quantaloid(doc.quantaloid)] if quantaloid else []
    reports += [validate_category(c) for c in doc.categories.values()]
    reports += [validate_distributor(d) for d in doc.distributors.values()]
    reports += [validate_functor(f) for f in doc.functors.values()]
    return reports


def load_valid_document(path: str) -> ContextDocument:
    """Load a context file to compute on: everything ``validate`` checks must pass.

    Presets are validated by ``build_preset`` already.
    """
    doc = load_document(path)
    failed = [r for r in _validation_reports(doc, "preset" not in doc.quantaloid_spec)
              if not r.ok]
    if failed:
        raise ValidationFailed(failed)
    return doc


def serialize_document(doc: ContextDocument) -> dict:
    Q = doc.quantaloid
    if "preset" in doc.quantaloid_spec:
        qspec = {"preset": doc.quantaloid_spec["preset"]}
    else:
        homs = {}
        for p, q in itertools.product(Q.objects, repeat=2):
            hom = Q.hom(p, q)
            homs[f"{p}->{q}"] = {
                "elements": list(hom.elements),
                "leq": sorted([hom.elements[i], hom.elements[j]] for i, j in hom.leq_pairs),
            }
        compose = []
        for p, q, r in itertools.product(Q.objects, repeat=3):
            for v in Q.arrows(q, r):
                for u in Q.arrows(p, q):
                    w = Q.compose(v, u)
                    compose.append([f"{q}->{r}:{Q.label(v)}", f"{p}->{q}:{Q.label(u)}",
                                    f"{p}->{r}:{Q.label(w)}"])
        qspec = {
            "objects": list(Q.objects),
            "homs": homs,
            "compose": compose,
            "units": {q: Q.label(Q.unit(q)) for q in Q.objects},
            "name": Q.name,
        }
    out = {"quantaloid": qspec, "categories": {}, "distributors": {}, "functors": {}}
    for name in sorted(doc.categories):
        A = doc.categories[name]
        out["categories"][name] = {
            "objects": [{"label": x, "type": t} for x, t in zip(A.objects, A.types)],
            "hom": [[x, y, Q.label(A.hom_of(x, y))]
                    for x in A.objects for y in A.objects],
        }
    for name in sorted(doc.distributors):
        phi = doc.distributors[name]
        out["distributors"][name] = {
            "from": phi.dom.name,
            "to": phi.cod.name,
            "entries": [[x, y, Q.label(phi.at(x, y))]
                        for x in phi.dom.objects for y in phi.cod.objects],
        }
    for name in sorted(doc.functors):
        F = doc.functors[name]
        out["functors"][name] = {"from": F.dom.name, "to": F.cod.name,
                                 "map": {x: F(x) for x in F.dom.objects}}
    return out


# -- output helpers -----------------------------------------------------------------


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(data: dict, out_path: str | None) -> None:
    _emit(json.dumps(data, indent=2, sort_keys=True) + "\n", out_path)


def _pick_distributor(doc: ContextDocument, name: str | None) -> QDistributor:
    if not doc.distributors:
        raise UsageError("the context file declares no distributors")
    if name is None:
        if len(doc.distributors) == 1:
            return next(iter(doc.distributors.values()))
        raise UsageError(f"--dist is required; choices: {sorted(doc.distributors)}")
    try:
        return doc.distributors[name]
    except KeyError:
        raise UsageError(f"no distributor {name!r}; choices: {sorted(doc.distributors)}"
                         ) from None


# -- subcommands --------------------------------------------------------------------


def cmd_validate(args) -> int:
    reports = _validation_reports(load_document(args.path))
    ok = all(r.ok for r in reports)
    _dump({"ok": ok, "reports": [r.to_json() for r in reports]}, args.output)
    return 0 if ok else 1


def cmd_concepts(args) -> int:
    doc = load_valid_document(args.path)
    phi = _pick_distributor(doc, args.dist)
    objects = doc.quantaloid.objects
    if args.type != "all" and args.type not in objects:
        raise UsageError(f"unknown type {args.type!r}")
    wanted = list(objects) if args.type == "all" else [args.type]
    lattice = closure_pair(phi, args.mode).lattice()
    if args.oracle:
        for t in wanted:
            fixed = brute_force_fixed(phi, args.mode, t)
            expected = frozenset(p.key() for p in fixed)
            got = {p.key(): lbl for p, lbl in zip(lattice.members, lattice.labels)
                   if p.type == t}
            if expected != got.keys():
                diff = {
                    "type": t,
                    "missing": sorted(presheaf_label(p) for p in fixed if p.key() not in got),
                    "extra": sorted(lbl for k, lbl in got.items() if k not in expected),
                }
                _dump({"oracle": "mismatch", "diff": diff}, args.output)
                return 3
    data = lattice_to_json(lattice)
    data["types"] = {t: data["types"][t] for t in wanted}
    if args.out == "dot":
        _emit(_json_to_dot(data), args.output)
    else:
        _dump(data, args.output)
    return 0


def cmd_girard(args) -> int:
    doc = load_valid_document(args.path)
    Q = doc.quantaloid
    fam = find_cyclic_dualizing_family(Q)  # never None: the tops are a cyclic family
    labels = fam.labels(Q)
    shown = ",".join(labels[q] for q in Q.objects)
    if fam.dualizing:
        result = {"girard": True, "cyclic_family": labels, "summary": f"Girard, d=({shown})"}
    else:
        result = {"girard": False, "cyclic_family": labels,
                  "summary": f"not Girard; best cyclic family d=({shown})"}
    _dump(result, args.output)
    return 0


def _parse_data_tokens(tokens) -> dict:
    out = {}
    for tok in tokens or []:
        if "=" not in tok:
            raise UsageError(f"--data expects key=value tokens, got {tok!r}")
        k, v = tok.split("=", 1)
        if k in out:
            raise UsageError(f"--data names the key {k!r} twice")
        out[k] = v
    return out


def _data_ref(named: dict, data: dict, key: str, what: str):
    """The category or functor that the ``--data`` token ``key`` names."""
    name = data[key]
    try:
        return named[name]
    except KeyError:
        raise UsageError(f"--data {key}={name}: no {what} {name!r} in the context file; "
                         f"choices: {sorted(named)}") from None


# The --data keys that each property reads; mphi-rep reads all three or none.
_DATA_KEYS = {"thm33": ["kind"], "thm51": ["kind"], "elementary-rep": ["kind"],
              "yoneda": ["category"], "dense-cond": ["category"],
              "mphi-rep": ["F", "G", "X"], "girard-probe": ["object"]}


def cmd_verify(args) -> int:
    doc = load_valid_document(args.path)
    data = _parse_data_tokens(args.data)
    prop = args.prop
    accepted = _DATA_KEYS.get(prop, [])
    for key in data:
        if key not in accepted:
            raise UsageError(f"--prop {prop} reads no --data key {key!r}; "
                             f"it accepts {accepted}")
    if prop == "mphi-rep" and data and len(data) < len(accepted):
        missing = [key for key in accepted if key not in data]
        raise UsageError(f"--prop mphi-rep reads all of the --data keys {accepted} or none; "
                         f"{missing[0]!r} is missing")
    kind = data.get("kind", "fca")
    if prop not in ("yoneda", "dense-cond", "girard-probe"):
        phi = _pick_distributor(doc, args.dist)
    elif args.dist is not None:
        raise UsageError(f"--prop {prop} reads no distributor; got --dist {args.dist}")

    if prop in ("yoneda", "dense-cond"):
        verify = verify_yoneda if prop == "yoneda" else verify_density_suite
        report = Report(prop)
        cats = ([_data_ref(doc.categories, data, "category", "category")] if "category" in data
                else list(doc.categories.values()))
        for A in cats:
            report.extend(verify(A), prefix=f"{A.name}:")
    elif prop in ("isbell-adjunction", "kan-adjunction"):
        report = verify_adjunction_laws(phi)
        report.extend(verify_adjunction_as_functors(
            phi, "fca" if prop == "isbell-adjunction" else "rst"))
    elif prop == "k-eq-m-tr":
        report = verify_rst_as_fca(phi)
    elif prop == "k-eq-m-neg":
        fam = find_cyclic_dualizing_family(doc.quantaloid)
        if fam is None or not fam.dualizing:
            raise NotGirard("the quantaloid has no cyclic dualizing family")
        report = verify_rst_as_fca_complement(phi, fam)
    elif prop == "elementary-identities":
        report = verify_elementary_identities(phi)
    elif prop == "thm33":
        d = canonical_general_data(phi, kind)
        report = verify_general_representation(d.adj.S, d.adj.T, d.L, d.R, d.X)
    elif prop == "thm51":
        d, F, K, G, H = canonical_dense_data(phi, kind)
        report = verify_dense_representation(d.adj.S, d.adj.T, F, K, G, H, d.X)
    elif prop == "mphi-rep":
        if data:
            X = _data_ref(doc.categories, data, "X", "category")
            F, G = (_data_ref(doc.functors, data, key, "functor") for key in ("F", "G"))
            for key, f, start in (("F", F, phi.dom), ("G", G, phi.cod)):
                if f.dom != start or f.cod != X:
                    raise UsageError(f"--data {key}={data[key]}: functor goes {f.dom.name} -> "
                                     f"{f.cod.name}; --prop mphi-rep needs {start.name} -> {X.name}")
            report = verify_fca_representation(phi, X, F, G)
        else:
            d, F, G = canonical_fca_data(phi)
            report = verify_fca_representation(phi, d.X, F, G)
    elif prop == "kphi-rep":
        d, F, G, rc = canonical_rst_data(phi)
        report = verify_rst_representation(phi, d.X, F, G, rc)
    elif prop == "elementary-rep":
        d, F, G = canonical_elementary_data(phi, kind)
        report = verify_elementary_representation(phi, d.X, F, G, kind)
    else:  # girard-probe; argparse admits no other property
        Q = doc.quantaloid
        qobj = data.get("object", Q.objects[0])
        if qobj not in Q.objects:
            raise UsageError(f"--data object={qobj}: no object {qobj!r} in the quantaloid; "
                             f"choices: {list(Q.objects)}")
        report = codense_probe(Q, qobj)
    _dump(report.to_json(), args.output)
    return 0 if report.passed else 3


def cmd_tr(args) -> int:
    doc = load_valid_document(args.path)
    phi = _pick_distributor(doc, args.dist)
    Q = doc.quantaloid
    rc = residual_category(phi.dom)
    tr = residual_context(phi, rc)
    members = [{"label": lbl, "type": p.type, "values": dict(zip(rc.base.objects, values)),
                "provenance": [[a, Q.label(u)] for a, u in rc.provenance[p.key()]]}
               for p, lbl, values in zip(rc.members, rc.labels, rc.value_labels)]
    entries = [[b, m, Q.label(tr.at(b, m))]
               for b in phi.cod.objects for m in rc.labels]
    _dump({"distributor": phi.name, "residual_members": members,
           "residual_context": entries}, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfca",
        description="Concept lattices and representation theorems for "
                    "contexts valued in a finite quantaloid.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="run all structural validators")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("concepts", help="compute a concept lattice")
    p.add_argument("path")
    p.add_argument("--dist")
    p.add_argument("--mode", choices=["fca", "rst"], default="fca")
    p.add_argument("--type", default="all")
    p.add_argument("--out", choices=["json", "dot"], default="json")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the brute-force enumeration")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_concepts)

    p = sub.add_parser("girard", help="search for a cyclic dualizing family")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_girard)

    p = sub.add_parser("verify", help="run a property or theorem verifier")
    p.add_argument("path")
    p.add_argument("--prop", required=True, choices=[
        "k-eq-m-tr", "k-eq-m-neg", "isbell-adjunction", "kan-adjunction",
        "yoneda", "dense-cond", "elementary-identities", "thm33", "thm51",
        "mphi-rep", "kphi-rep", "elementary-rep", "girard-probe"])
    p.add_argument("--dist")
    p.add_argument("--data", nargs="*", metavar="KEY=VALUE")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("tr", help="emit the residual category and residual context")
    p.add_argument("path")
    p.add_argument("--dist")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_tr)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (QfcaError, OSError) as e:  # OSError: an unreadable path
        if isinstance(e, ValidationFailed):
            _dump({"ok": False, "reports": [r.to_json() for r in e.reports]}, args.output)
        print(f"error: {e}", file=sys.stderr)
        return next(code for kinds, code in _EXIT_CODES if isinstance(e, kinds))


if __name__ == "__main__":
    sys.exit(main())
