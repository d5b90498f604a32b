import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import qfca.cli as cli
from qfca.concept import fca_lattice
from qfca.errors import BudgetExceeded, ClosureBudgetExceeded, SearchBudgetExceeded
from qfca.presheaf import enumerate_presheaves
from qfca.qcat import find_equivalence
from qfca.quantaloid import find_cyclic_dualizing_family

HERE = pathlib.Path(__file__).parent
ROOT = HERE.parent
CONTEXTS = ROOT / "contexts"
DATA = HERE / "data"

ALL_CONTEXT_FILES = sorted(CONTEXTS.glob("*.json")) + [DATA / "inline_two.json"]


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(capsys):
    for path in ALL_CONTEXT_FILES:
        code, out = run(capsys, "validate", path)
        assert code == 0, path
        assert json.loads(out)["ok"] is True


def test_validate_broken_compose_names_triple(capsys):
    code, out = run(capsys, "validate", DATA / "broken_compose.json")
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False
    issues = [i for r in report["reports"] for i in r["issues"]]
    assoc = [i for i in issues if i["code"] == "compose.associative"]
    assert assoc and ["m", "1", "m"] in [i["where"] for i in assoc]


def test_unknown_preset_usage_error(capsys):
    code = cli.main(["validate", str(DATA / "unknown_preset.json")])
    assert code == 2


def test_malformed_inputs_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["validate", str(bad)]) == 2
    missing = tmp_path / "missing.json"
    missing.write_text("{}")
    assert cli.main(["validate", str(missing)]) == 2
    assert cli.main(["validate", str(tmp_path / "absent.json")]) == 2
    incomplete = tmp_path / "incomplete_functor.json"
    doc = json.loads((CONTEXTS / "fix_2id.json").read_text())
    doc["functors"]["partial"] = {"from": "A", "to": "A", "map": {"a1": "a1"}}
    incomplete.write_text(json.dumps(doc))
    assert cli.main(["validate", str(incomplete)]) == 2


def test_concepts_fca_diamond_dot(capsys):
    code, out = run(capsys, "concepts", CONTEXTS / "fix_2id.json",
                    "--mode", "fca", "--out", "dot", "--oracle")
    assert code == 0
    assert out.count("[label=") == 4
    assert out.count("->") == 4  # the four cover edges of the diamond


def test_concepts_rst_chain(capsys):
    code, out = run(capsys, "concepts", CONTEXTS / "fix_l3.json",
                    "--mode", "rst", "--out", "dot", "--oracle")
    assert code == 0
    assert out.count("[label=") == 2 and out.count("->") == 1


def test_concepts_json_type_filter(capsys):
    code, out = run(capsys, "concepts", CONTEXTS / "fix_dl3.json",
                    "--mode", "rst", "--type", "1", "--oracle")
    assert code == 0
    data = json.loads(out)
    assert list(data["types"].keys()) == ["1"]


def test_concepts_unknown_type(capsys, monkeypatch):
    code = cli.main(["concepts", str(CONTEXTS / "fix_dl3.json"), "--type", "9"])
    assert code == 2
    monkeypatch.setenv("QFCA_BUDGET", "1")  # the type is checked before any closure runs
    assert cli.main(["concepts", str(CONTEXTS / "fix_2id.json"), "--type", "zz"]) == 2
    assert "unknown type 'zz'" in capsys.readouterr().err


def test_concepts_type_filter_with_a_dash(capsys, tmp_path):
    # the DOT graph of type t-1 is named fca_t_1: the filter must still find it
    path = tmp_path / "dashed.json"
    path.write_text((DATA / "inline_two.json").read_text().replace("*", "t-1"))
    for mode in ("fca", "rst"):
        code, dot = run(capsys, "concepts", path, "--mode", mode, "--out", "dot",
                        "--type", "t-1")
        assert code == 0 and dot.startswith(f'digraph "{mode}_t_1" {{')
        assert dot == run(capsys, "concepts", path, "--mode", mode, "--out", "dot")[1]
        code, out = run(capsys, "concepts", path, "--mode", mode, "--type", "t-1")
        assert code == 0 and list(json.loads(out)["types"]) == ["t-1"]


def test_concepts_oracle_mismatch_fault_injection(capsys, monkeypatch):
    # simulate a buggy closure by dropping a concept from the computed lattice
    import qfca.concept as concept
    real = concept.fca_lattice

    def broken(phi):
        lattice = real(phi)
        return concept.ConceptLattice("fca", phi, lattice.concepts[:-1])

    monkeypatch.setattr(concept, "fca_lattice", broken)
    code, out = run(capsys, "concepts", CONTEXTS / "fix_2id.json",
                    "--mode", "fca", "--oracle")
    assert code == 3
    diff = json.loads(out)
    assert diff["oracle"] == "mismatch" and diff["diff"]["missing"]


def test_girard_outputs(capsys, tmp_path):
    code, out = run(capsys, "girard", CONTEXTS / "fix_l3.json")
    assert code == 0 and json.loads(out)["summary"] == "Girard, d=(0)"
    code, out = run(capsys, "girard", CONTEXTS / "godel3.json")
    assert code == 0
    assert json.loads(out)["summary"] == "not Girard; best cyclic family d=(0)"
    path = tmp_path / "b4.json"
    path.write_text(json.dumps(
        {"quantaloid": {"preset": {"name": "frame-diagonal", "boolean": 2}}}))
    code, out = run(capsys, "girard", path)
    assert code == 0 and json.loads(out)["girard"] is True


def test_verify_props_pass(capsys):
    for prop in ("k-eq-m-tr", "yoneda", "dense-cond", "isbell-adjunction",
                 "kan-adjunction", "elementary-identities", "thm33", "thm51",
                 "mphi-rep", "kphi-rep", "elementary-rep", "girard-probe"):
        code, out = run(capsys, "verify", CONTEXTS / "fix_l3.json", "--prop", prop)
        assert code == 0, (prop, out)
        assert json.loads(out)["passed"] is True


# sha256 (first 16 hex digits) of the stdouts of test_empty_carrier_documents,
# joined in run order.
EMPTY_SIDE_DIGESTS = {"no-rows": "88793aed0864b4dc", "no-columns": "22ae82065e3b27f7"}
PROPS = ("k-eq-m-tr", "k-eq-m-neg", "isbell-adjunction", "kan-adjunction", "yoneda",
         "dense-cond", "elementary-identities", "thm33", "thm51", "mphi-rep", "kphi-rep",
         "elementary-rep", "girard-probe")


def test_empty_carrier_documents(capsys, tmp_path):
    """A context whose row or column category has no objects has one concept per type."""
    side = {"objects": [{"label": "x0", "type": "0"}, {"label": "x1", "type": "1"}],
            "hom": [["x0", "x0", "0"], ["x1", "x1", "1"]]}
    empty = {"objects": []}
    runs = [("concepts", "--mode", mode, *oracle)
            for mode in ("fca", "rst") for oracle in ((), ("--oracle",))]
    runs += [("tr",)] + [("verify", "--prop", prop) for prop in PROPS]
    for name, (rows, cols) in {"no-rows": (empty, side), "no-columns": (side, empty)}.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({
            "quantaloid": {"preset": {"name": "frame-diagonal", "chain": 2}},
            "categories": {"A": rows, "B": cols},
            "distributors": {"phi": {"from": "A", "to": "B"}}}))
        outputs = []
        for command, *rest in runs:
            code, out = run(capsys, command, path, *rest)
            assert code == 0, (name, command, rest, out)
            outputs.append(out)
        for out in outputs[:4]:
            assert [len(t["concepts"]) for t in json.loads(out)["types"].values()] == [1, 1]
        assert outputs[0] == outputs[1] and outputs[2] == outputs[3]
        digest = hashlib.sha256("".join(outputs).encode()).hexdigest()[:16]
        assert digest == EMPTY_SIDE_DIGESTS[name], name


def test_verify_multi_typed_central_identity(capsys):
    code, out = run(capsys, "verify", CONTEXTS / "fix_dl3.json", "--prop", "k-eq-m-tr")
    assert code == 0
    names = [c["name"] for c in json.loads(out)["conditions"]]
    assert {"lattice-equality@0", "lattice-equality@1", "lattice-equality@2"} <= set(names)


def test_verify_multi_typed_theorems(capsys):
    for prop in ("thm33", "kphi-rep", "elementary-identities"):
        code, out = run(capsys, "verify", CONTEXTS / "fix_dl3.json", "--prop", prop)
        assert code == 0, (prop, out)
        assert json.loads(out)["passed"] is True


def test_verify_k_eq_m_neg(capsys):
    code, out = run(capsys, "verify", CONTEXTS / "fix_l3.json", "--prop", "k-eq-m-neg")
    assert code == 0 and json.loads(out)["passed"] is True
    code = cli.main(["verify", str(CONTEXTS / "godel3.json"), "--prop", "k-eq-m-neg"])
    assert code == 2  # precondition: the quantaloid is not Girard


def test_verify_rst_kind(capsys):
    code, out = run(capsys, "verify", CONTEXTS / "fix_2id.json", "--prop", "thm33",
                    "--data", "kind=rst")
    assert code == 0 and json.loads(out)["passed"] is True


def test_verify_user_supplied_data(capsys, tmp_path):
    # an explicitly wrong user representation is rejected with exit 3
    doc = json.loads((CONTEXTS / "fix_2id.json").read_text())
    doc["categories"]["X"] = {
        "objects": [{"label": "pt", "type": "*"}],
        "hom": [["pt", "pt", "1"]],
    }
    doc["functors"]["F"] = {"from": "A", "to": "X", "map": {"a1": "pt", "a2": "pt"}}
    doc["functors"]["G"] = {"from": "B", "to": "X", "map": {"b1": "pt", "b2": "pt"}}
    path = tmp_path / "user.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify", path, "--prop", "mphi-rep",
                    "--data", "F=F", "G=G", "X=X")
    assert code == 3
    assert json.loads(out)["passed"] is False


def test_verify_user_supplied_incomplete_target(capsys, tmp_path):
    # two incomparable objects have no join, so X fails the completeness
    # hypothesis, which the report checks instead of asserting
    doc = json.loads((CONTEXTS / "fix_2id.json").read_text())
    doc["categories"]["X"] = {
        "objects": [{"label": "u", "type": "*"}, {"label": "v", "type": "*"}],
        "hom": [["u", "u", "1"], ["v", "v", "1"], ["u", "v", "0"], ["v", "u", "0"]],
    }
    doc["functors"]["F"] = {"from": "A", "to": "X", "map": {"a1": "u", "a2": "v"}}
    doc["functors"]["G"] = {"from": "B", "to": "X", "map": {"b1": "u", "b2": "v"}}
    path = tmp_path / "incomplete.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["verify", str(path), "--prop", "mphi-rep", "--data", "F=F", "G=G", "X=X"])
    captured = capsys.readouterr()
    assert code == 3 and "Traceback" not in captured.err
    report = json.loads(captured.out)
    assert report["passed"] is False
    assert "complete" in [c["name"] for c in report["conditions"] if not c["passed"]]


def test_tr_output(capsys):
    code, out = run(capsys, "tr", CONTEXTS / "fix_l3.json")
    assert code == 0
    data = json.loads(out)
    assert len(data["residual_members"]) == 3
    values = {e[2] for e in data["residual_context"]}
    assert values == {"1/2", "1"}
    for m in data["residual_members"]:
        assert m["provenance"]


def test_round_trip(capsys):
    for path in ALL_CONTEXT_FILES:
        doc = cli.load_document(str(path))
        once = cli.serialize_document(doc)
        again = cli.serialize_document(cli.parse_document(once))
        assert once == again
        assert cli.parse_document(once) == doc


def test_byte_identical_outputs(capsys, tmp_path):
    fixtures = [
        ("concepts", CONTEXTS / "fix_dl3.json", "--mode", "rst", "--out", "dot"),
        ("concepts", CONTEXTS / "fix_2id.json", "--mode", "fca", "--out", "json"),
        ("girard", CONTEXTS / "fix_dl3.json"),
        ("verify", CONTEXTS / "fix_l3.json", "--prop", "k-eq-m-tr"),
        ("tr", CONTEXTS / "fix_dl3.json"),
    ]
    for k, argv in enumerate(fixtures):
        code, out1 = run(capsys, *argv)
        _, out2 = run(capsys, *argv)
        assert out1 == out2 and out1
        target = tmp_path / f"out{k}"
        assert run(capsys, *argv, "-o", target) == (code, "")
        assert target.read_bytes() == out1.encode()


def test_dist_choice_is_required_and_checked(capsys, tmp_path):
    doc = json.loads((CONTEXTS / "fix_dl3.json").read_text())
    doc["distributors"]["psi"] = doc["distributors"]["phi"]
    path = tmp_path / "two_distributors.json"
    path.write_text(json.dumps(doc))
    for extra, message in [([], "--dist is required; choices: ['phi', 'psi']"),
                           (["--dist", "zz"], "no distributor 'zz'; choices: ['phi', 'psi']")]:
        assert cli.main(["concepts", str(path), *extra]) == 2
        assert message in capsys.readouterr().err
    assert cli.main(["concepts", str(path), "--dist", "psi"]) == 0


def test_verify_data_keys_are_checked(capsys):
    path = str(CONTEXTS / "fix_dl3.json")
    for prop, data, message in [
            ("thm33", ["knd=rst"], "--prop thm33 reads no --data key 'knd'; it accepts ['kind']"),
            ("mphi-rep", ["F=zz", "G=zz"],
             "reads all of the --data keys ['F', 'G', 'X'] or none; 'X' is missing"),
            ("yoneda", ["object=x"],
             "--prop yoneda reads no --data key 'object'; it accepts ['category']"),
            ("k-eq-m-tr", ["kind=rst"],
             "--prop k-eq-m-tr reads no --data key 'kind'; it accepts []"),
            ("girard-probe", ["category=A"], "it accepts ['object']"),
            ("thm33", ["kind=rst", "kind=fca"], "--data names the key 'kind' twice"),
            ("thm33", ["kind"], "--data expects key=value tokens, got 'kind'"),
            ("thm33", ["kind=xyz"], "kind must be fca or rst, got 'xyz'")]:
        assert cli.main(["verify", path, "--prop", prop, "--data", *data]) == 2, prop
        assert message in capsys.readouterr().err
    for prop, data in [("thm33", "kind=rst"), ("yoneda", "category=A"),
                       ("girard-probe", "object=2")]:
        assert cli.main(["verify", path, "--prop", prop, "--data", data]) == 0, prop
        capsys.readouterr()


def test_table_preset_unknown_label_is_named(capsys, tmp_path):
    doc = json.loads((DATA / "table_quantale.json").read_text())
    doc["quantaloid"]["preset"]["leq"] = [["0", "zz"]]
    path = tmp_path / "unknown_label.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unknown arrow label 'zz'" in err and "missing parameter" not in err


def test_budget_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QFCA_BUDGET", "1")
    code = cli.main(["concepts", str(CONTEXTS / "fix_2id.json"), "--oracle"])
    assert code == 4  # the cap trips and surfaces as budget exhaustion
    monkeypatch.setenv("QFCA_BUDGET", "abc")
    assert cli.main(["concepts", str(CONTEXTS / "fix_2id.json")]) == 2
    assert "QFCA_BUDGET must be an integer, got 'abc'" in capsys.readouterr().err


def test_budget_exhaustion_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("QFCA_BUDGET", "2")
    code = cli.main(["concepts", str(CONTEXTS / "fix_2id.json"), "--mode", "fca"])
    err = capsys.readouterr().err
    assert code == 4
    assert "closure cap of 2 elements" in err and "at type '*'" in err
    assert "QFCA_BUDGET overrides it" in err
    monkeypatch.setenv("QFCA_BUDGET", "1")
    # enumeration (BudgetExceeded) and family search (SearchBudgetExceeded)
    assert cli.main(["verify", str(CONTEXTS / "fix_2id.json"), "--prop", "yoneda"]) == 4
    assert cli.main(["girard", str(CONTEXTS / "godel3.json")]) == 4


# each raise site: (its cap, QFCA_BUDGET, the call that trips it, its class,
# the count: the size needed, or the size reached for the incremental caps)
CAPS = {
    "enumeration": ("enumeration", 3, lambda ctx, Q: enumerate_presheaves(ctx.A, "*"),
                    BudgetExceeded, 4),
    "closure": ("closure", 2, lambda ctx, Q: fca_lattice(ctx.phi), ClosureBudgetExceeded, 3),
    "family-search": ("search", 2, lambda ctx, Q: find_cyclic_dualizing_family(Q),
                      SearchBudgetExceeded, 3),
    "equivalence-search": ("search", 1, lambda ctx, Q: find_equivalence(ctx.A, ctx.A),
                           SearchBudgetExceeded, 2),
}


@pytest.mark.parametrize("site", list(CAPS))
def test_every_cap_names_its_kind_limit_and_count(site, fix2id, luk3, monkeypatch):
    kind, limit, trip, cls, count = CAPS[site]
    monkeypatch.setenv("QFCA_BUDGET", str(limit))
    with pytest.raises(BudgetExceeded) as err:
        trip(fix2id, luk3)
    e = err.value
    assert type(e) is cls and issubclass(cls, BudgetExceeded)
    assert (e.kind, e.limit, e.count) == (kind, limit, count)
    message = str(e)
    assert f"{kind} cap of {limit} " in message and f"(count {count})" in message
    assert "QFCA_BUDGET overrides it" in message
    assert next(code for kinds, code in cli._EXIT_CODES if isinstance(e, kinds)) == 4


def test_unreadable_paths_are_usage_errors(capsys, tmp_path):
    undecodable = tmp_path / "latin1.json"
    undecodable.write_bytes(b"\xff\xfe{}")
    for path in (undecodable, tmp_path):  # not UTF-8; a directory
        for command in ("validate", "concepts"):
            assert cli.main([command, str(path)]) == 2, (command, path)
            assert str(path) in capsys.readouterr().err


def test_malformed_documents_are_usage_errors(tmp_path):
    doc = json.loads((CONTEXTS / "fix_2id.json").read_text())
    doc["categories"]["A"]["objects"] = 5
    cases = {"list.json": ([doc], "$ must be an object"),
             "objects.json": (doc, "$.categories.A.objects must be a list, got 5")}
    for name, (data, message) in cases.items():
        path = tmp_path / name
        path.write_text(json.dumps(data))
        proc = subprocess.run(
            [sys.executable, "-m", "qfca.cli", "concepts", str(path)],
            capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_cold_start_loads_no_dataclasses_fractions_or_inspect():
    # -S keeps site-packages' .pth files, which may import anything, out of the check
    probe = ("import sys, qfca.cli\n"
             "code = qfca.cli.main(['verify', 'contexts/fix_l3.json', '--prop', 'thm51'])\n"
             "print(code, sorted({'dataclasses', 'fractions', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True,
                          cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


def test_unknown_labels_are_named(capsys, tmp_path):
    doc = json.loads((DATA / "inline_two.json").read_text())
    doc["quantaloid"]["homs"]["*->*"]["leq"] = [["0", "zz"]]
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert "hom section '*->*'" in err and "unknown arrow label 'zz'" in err
    assert "misses the required field" not in err
    doc["quantaloid"]["homs"]["*->*"]["leq"] = [["0", "1"]]
    square = {f"{p}->{q}": doc["quantaloid"]["homs"]["*->*"] for p in "*o" for q in "*o"}
    stray = {"elements": ["a"], "leq": []}
    for edit, message in [
            # a hom on an undeclared object, with a compose triple or a unit on it
            (lambda q: (q["homs"].update({"z->z": stray}), q["compose"].append(["z->z:a"] * 3)),
             "hom section 'z->z' names the undeclared object 'z'"),
            (lambda q: (q["homs"].update({"z->z": stray}), q["units"].update(z="a")),
             "hom section 'z->z' names the undeclared object 'z'"),
            (lambda q: q["homs"].update({"z->*": stray}),
             "hom section 'z->*' names the undeclared object 'z'"),
            (lambda q: q["homs"]["*->*"].update(elements=["0", "1", "0"]),
             "hom section '*->*': duplicate element labels in hom: ('0', '1', '0')"),
            (lambda q: q.update(compose=[["zz", "1", "1"]]),
             "no arrow labelled 'zz' in the quantaloid"),
            (lambda q: q.update(objects=["*", "o"], homs=square),
             "arrow label '1' is ambiguous; qualify it as 'p->q:1'"),
            (lambda q: q.update(objects=["*", "o"], homs=square,
                                compose=[["*->o:1", "*->o:1", "*->o:1"]]),
             "compose triple [*->o:1,*->o:1,*->o:1] is not composable"),
            (lambda q: q.update(homs={"**": q["homs"]["*->*"]}),
             "hom section '**' is not named 'p->q'"),
            (lambda q: q.update(objects=["*", "o"]), "missing hom section '*->o'"),
            (lambda q: q["units"].update(zz="1"), "units name the unknown object 'zz'"),
            (lambda q: q.update(compose=[["*->zz:1", "1", "1"]]),
             "arrow '*->zz:1' names the unknown hom '*->zz'"),
            (lambda q: q["units"].update({"*": "zz"}),
             "units '*': unknown arrow label 'zz'"),
            (lambda q: q.update(compose=[["*->*:zz", "1", "1"]]),
             "compose triple [*->*:zz,1,1]: unknown arrow label 'zz'"),
            (lambda q: q.pop("units"), "error: $.quantaloid misses the required field 'units'"),
            (lambda q: q["homs"]["*->*"].pop("elements"),
             "error: $.quantaloid.homs[\"*->*\"] misses the required field 'elements'")]:
        bad = json.loads(json.dumps(doc))
        edit(bad["quantaloid"])
        path.write_text(json.dumps(bad))
        assert cli.main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err
    doc = json.loads((CONTEXTS / "fix_2id.json").read_text())
    for edit, message in [
            (lambda d: d["categories"]["A"]["hom"].append(["a1", "a1", "zz"]),
             "error: category 'A': hom entry [a1,a1,zz]: unknown arrow label 'zz'"),
            (lambda d: d["categories"]["A"]["objects"].append({"label": "a1", "type": "*"}),
             "error: category 'A': duplicate object labels: ('a1', 'a2', 'a1')"),
            (lambda d: d["distributors"]["phi"]["entries"].append(["a1", "b1", "zz"]),
             "error: distributor 'phi': entry [a1,b1,zz]: unknown arrow label 'zz'"),
            (lambda d: d["distributors"]["phi"]["entries"].append(["zz", "b1", "1"]),
             "error: distributor 'phi': entry [zz,b1,1]: no object 'zz' in A"),
            (lambda d: d["functors"]["swapA"]["map"].pop("a2"),
             "error: functor 'swapA': functor map misses object 'a2'"),
            # a missing field is named by its JSON path; CI runs the first case's file
            (lambda d: d.update(json.loads((DATA / "missing_type.json").read_text())),
             "error: $.categories.A.objects[0] misses the required field 'type'"),
            (lambda d: d.pop("quantaloid"), "error: $ misses the required field 'quantaloid'"),
            (lambda d: d.update(quantaloid={"preset": {"n": 3}}),
             "error: $.quantaloid.preset misses the required field 'name'"),
            (lambda d: d.update(quantaloid={}),
             "error: $.quantaloid misses the required field 'objects'"),
            (lambda d: d["categories"]["B"].pop("objects"),
             "error: $.categories.B misses the required field 'objects'"),
            (lambda d: d["categories"]["B"]["objects"][1].pop("label"),
             "error: $.categories.B.objects[1] misses the required field 'label'"),
            (lambda d: d["functors"]["swapB"].pop("map"),
             "error: $.functors.swapB misses the required field 'map'")]:
        bad = json.loads(json.dumps(doc))
        edit(bad)
        path.write_text(json.dumps(bad))
        assert cli.main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_missing_endpoint_is_named_as_missing(capsys, tmp_path):
    # one lookup serves distributors and functors: a missing field is not
    # read as the name of an unknown category
    path = tmp_path / "doc.json"
    for source, section, name, edit, message in [
            ("fix_dl3", "distributors", "phi", lambda s: s.pop("from"),
             "error: $.distributors.phi misses the required field 'from'"),
            ("fix_dl3", "distributors", "phi", lambda s: s.update(to="Z"),
             "error: distributor 'phi': unknown category 'Z'"),
            ("fix_2id", "functors", "swapA", lambda s: s.pop("to"),
             "error: $.functors.swapA misses the required field 'to'"),
            ("fix_2id", "functors", "swapA", lambda s: s.update({"from": "Z"}),
             "error: functor 'swapA': unknown category 'Z'")]:
        doc = json.loads((CONTEXTS / f"{source}.json").read_text())
        edit(doc[section][name])
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert message in err, err


def test_bad_preset_parameters_are_usage_errors(tmp_path):
    cases = {"n": ({"name": "lukasiewicz-chain", "n": "x"},
                   "parameter 'n' must be an integer, got 'x'"),
             "bogus": ({"name": "lukasiewicz-chain", "n": 3, "bogus": 1},
                       "takes no parameter 'bogus'")}
    for name, (preset, message) in cases.items():
        doc = json.loads((CONTEXTS / "fix_2id.json").read_text())
        doc["quantaloid"] = {"preset": preset}
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "qfca.cli", "validate", str(path)],
            capture_output=True, text=True, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 2, proc.stderr
        assert message in proc.stderr and "Traceback" not in proc.stderr


def test_integer_parameters_that_are_not_ascii_digits_are_usage_errors(capsys, tmp_path):
    for value in ("1_0", " +4 ", "\u0663"):
        preset = {"name": "godel-chain", "n": value}
        path = _edited(tmp_path, "fix_2id.json", lambda d: d.update(quantaloid={"preset": preset}))
        assert cli.main(["validate", str(path)]) == 2, value
        err = capsys.readouterr().err
        assert f"error: parameter 'n' must be an integer, got {value!r}" in err
        assert "Traceback" not in err


def test_refused_presets_are_usage_errors(capsys, tmp_path):
    # a.a = 1 on the chain 0 < a < 1 with unit 1 fails validation
    el = ["0", "a", "1"]
    products = [[x, y, "0" if "0" in (x, y) else y if x == "1" else x if y == "1" else "1"]
                for x in el for y in el]
    for preset, message in [
            ({"name": "frame-diagonal", "chain": True},
             "parameter 'chain' must be an integer, got True"),
            ({"name": "frame-diagonal", "boolean": False},
             "parameter 'boolean' must be an integer, got False"),
            ({"name": "lukasiewicz-chain", "n": True},
             "parameter 'n' must be an integer, got True"),
            ({"name": "frame-diagonal", "chain": 2, "boolean": 3},
             "frame-diagonal takes chain=<n> or boolean=<k>, not both"),
            ({"name": "commutative-quantale-from-table", "elements": el,
              "leq": [["0", "a"], ["a", "1"]], "products": products, "unit": "1"},
             "preset 'commutative-quantale-from-table' failed validation")]:
        path = _edited(tmp_path, "fix_2id.json", lambda d: d.update(quantaloid={"preset": preset}))
        assert cli.main(["validate", str(path)]) == 2, preset
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def test_table_preset_over_a_non_lattice_is_a_usage_error(capsys, tmp_path):
    el = ["0", "a", "b"]
    preset = {"name": "commutative-quantale-from-table", "elements": el,
              "leq": [["0", "a"], ["0", "b"]], "products": [[x, y, "0"] for x in el for y in el],
              "unit": "a"}
    path = _edited(tmp_path, "fix_2id.json", lambda d: d.update(quantaloid={"preset": preset}))
    assert cli.main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: preset 'commutative-quantale-from-table' failed validation: "
                          "[Issue(code='lattice.top'")
    assert "Traceback" not in err


def test_document_shape_paths(capsys, tmp_path):
    base = json.loads((CONTEXTS / "fix_2id.json").read_text())
    edits = [
        (lambda d: d["quantaloid"].update(preset=5),
         "$.quantaloid.preset must be a string or an object, got 5"),
        (lambda d: d["quantaloid"].update(preset={"name": 5}),
         "$.quantaloid.preset.name must be a string, got 5"),
        (lambda d: d["distributors"]["phi"]["entries"].append(["a1", "b2"]),
         "$.distributors.phi.entries[2] must be a list of 3, got a list"),
        (lambda d: d["functors"]["swapA"]["map"].update(a1=["a2"]),
         "$.functors.swapA.map.a1 must be a string, got a list"),
    ]
    for edit, message in edits:
        doc = json.loads(json.dumps(base))
        edit(doc)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 2
        assert message in capsys.readouterr().err


def test_verify_data_unknown_name_usage_error(capsys, tmp_path):
    path = CONTEXTS / "fix_2id.json"
    for prop in ("yoneda", "dense-cond"):
        assert cli.main(["verify", str(path), "--prop", prop, "--data", "category=nope"]) == 2
        err = capsys.readouterr().err
        assert "category=nope" in err and "choices: ['A', 'B']" in err
    doc = json.loads(path.read_text())
    doc["functors"]["F"] = {"from": "A", "to": "A", "map": {"a1": "a1", "a2": "a2"}}
    user = tmp_path / "user.json"
    user.write_text(json.dumps(doc))
    for data in (["F=F", "G=F", "X=nope"], ["F=F", "G=nope", "X=A"]):
        assert cli.main(["verify", str(user), "--prop", "mphi-rep", "--data", *data]) == 2
        assert "nope" in capsys.readouterr().err


def test_verify_refuses_what_it_does_not_read(capsys):
    path = str(CONTEXTS / "fix_2id.json")
    for data, message in [
            (["F=swapA", "G=swapB", "X=A"],
             "error: --data G=swapB: functor goes B -> B; --prop mphi-rep needs B -> A"),
            (["F=swapB", "G=swapB", "X=B"],
             "error: --data F=swapB: functor goes B -> B; --prop mphi-rep needs A -> B")]:
        assert cli.main(["verify", path, "--prop", "mphi-rep", "--data", *data]) == 2, data
        assert message in capsys.readouterr().err
    for prop in ("yoneda", "dense-cond", "girard-probe"):
        assert cli.main(["verify", path, "--prop", prop, "--dist", "zz"]) == 2, prop
        assert f"error: --prop {prop} reads no distributor; got --dist zz" in \
            capsys.readouterr().err


def test_invalid_inline_quantaloid_is_not_computed_on(capsys, tmp_path):
    doc = json.loads((DATA / "broken_compose.json").read_text())
    doc["categories"] = {
        "A": {"objects": [{"label": "a", "type": "*"}], "hom": [["a", "a", "1"]]},
        "B": {"objects": [{"label": "b", "type": "*"}], "hom": [["b", "b", "1"]]},
    }
    doc["distributors"] = {"phi": {"from": "A", "to": "B", "entries": [["a", "b", "m"]]}}
    path = tmp_path / "broken_with_context.json"
    path.write_text(json.dumps(doc))
    for argv in (["concepts"], ["concepts", "--mode", "rst"], ["tr"], ["girard"],
                 ["verify", "--prop", "k-eq-m-tr"], ["verify", "--prop", "girard-probe"]):
        code, out = run(capsys, argv[0], path, *argv[1:])
        assert code == 1, argv
        report = json.loads(out)
        assert report["ok"] is False
        codes = {i["code"] for r in report["reports"] for i in r["issues"]}
        assert "compose.associative" in codes, argv


@pytest.mark.parametrize("leq, code, where", [
    ([["0", "1"], ["1", "0"]], "poset.antisymmetric", ["*", "*", "0", "1"]),
    ([], "lattice.bottom", ["*", "*"]),
], ids=["two-cycle", "antichain"])
def test_inline_hom_that_is_not_a_lattice_fails_validation(capsys, tmp_path, leq, code, where):
    doc = json.loads((DATA / "inline_two.json").read_text())
    doc["quantaloid"]["homs"]["*->*"]["leq"] = leq
    path = tmp_path / "not_a_lattice.json"
    path.write_text(json.dumps(doc))
    for command in ("validate", "concepts"):
        status, out = run(capsys, command, path)
        assert status == 1, command
        report = json.loads(out)
        assert report["ok"] is False
        assert [code, where] in [[i["code"], i["where"]]
                                 for r in report["reports"] for i in r["issues"]], command


def test_refused_quantaloid_output_is_pinned(capsys):
    # tests/data/not_a_lattice.json is inline_two.json with "leq": []
    code = cli.main(["validate", str(DATA / "not_a_lattice.json")])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == (DATA / "not_a_lattice.validate.out").read_text(encoding="utf-8")
    assert captured.err == "error: quantaloid inline-two failed validation; see the report\n"


def _edited(tmp_path, name, edit):
    """A copy of ``contexts/<name>`` changed in place by ``edit``."""
    doc = json.loads((CONTEXTS / name).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


COMPUTING = (["concepts"], ["concepts", "--mode", "rst"], ["tr"], ["girard"],
             ["verify", "--prop", "k-eq-m-tr"], ["verify", "--prop", "mphi-rep"])


@pytest.mark.parametrize("name, edit, code", [
    ("fix_dl3.json",
     lambda d: d["distributors"]["phi"]["entries"].remove(["x", "p", "1"]),
     "distributor.bimodule"),
    ("fix_l3.json",
     lambda d: d["categories"]["A"].update(hom=[["a", "a", "0"]]),
     "category.unit"),
])
def test_documents_that_fail_validation_are_not_computed_on(capsys, tmp_path, name, edit, code):
    path = _edited(tmp_path, name, edit)
    for argv in [["validate"], *COMPUTING]:
        status, out = run(capsys, argv[0], path, *argv[1:])
        assert status == 1, argv
        report = json.loads(out)
        assert report["ok"] is False
        assert code in {i["code"] for r in report["reports"] for i in r["issues"]}, argv


def test_girard_probe_unknown_object_usage_error(capsys):
    code = cli.main(["verify", str(CONTEXTS / "godel3.json"), "--prop", "girard-probe",
                     "--data", "object=zz"])
    assert code == 2
    err = capsys.readouterr().err
    assert "object=zz" in err and "choices: ['*']" in err


def test_table_preset_parameter_shapes(capsys, tmp_path):
    preset = {"name": "commutative-quantale-from-table", "elements": ["0", "1"],
              "leq": [["0", "1"]], "products": [["1", "1", "1"]], "unit": "1"}
    for key, value, message in [
            ("elements", 5, "$.quantaloid.preset.elements must be a list, got 5"),
            ("leq", [["0"]], "$.quantaloid.preset.leq[0] must be a list of 2, got a list"),
            ("products", {}, "$.quantaloid.preset.products must be a list, got an object"),
            ("unit", 1, "$.quantaloid.preset.unit must be a string, got 1")]:
        path = _edited(tmp_path, "fix_2id.json",
                       lambda d: d.update(quantaloid={"preset": {**preset, key: value}}))
        for command in ("validate", "concepts"):
            assert cli.main([command, str(path)]) == 2, key
            assert message in capsys.readouterr().err


# -- mutated context documents -------------------------------------------------------

MUTATION_COMMANDS = (["validate"], ["concepts"], ["tr"], ["verify", "--prop", "k-eq-m-tr"])
# contexts/*.json use no table preset, so the table-preset document joins them
MUTATION_FILES = sorted(CONTEXTS.glob("*.json")) + [DATA / "table_quantale.json"]
DOCUMENTED_EXIT_CODES = {0, 1, 2, 3, 4}


def _json_paths(node, path=()):
    """The path of every value inside a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(doc, kind, data):
    """One mutation of a copy of ``doc``: drop a key, give a field the wrong JSON
    type, use an unknown label, or set a hom or distributor entry to another
    element of its hom (or drop it, which makes it the bottom)."""
    doc = json.loads(json.dumps(doc))
    paths = list(_json_paths(doc))
    if kind == "drop":
        path = data.draw(st.sampled_from([p for p in paths if isinstance(_at(doc, p[:-1]), dict)]))
        del _at(doc, path[:-1])[path[-1]]
    elif kind == "type":
        path = data.draw(st.sampled_from(paths))
        old = type(_at(doc, path))
        new = data.draw(st.sampled_from([v for v in (None, True, 7, "zz", [], {})
                                         if type(v) is not old]))
        _at(doc, path[:-1])[path[-1]] = new
    elif kind == "label":
        path = data.draw(st.sampled_from([p for p in paths if isinstance(_at(doc, p), str)]))
        _at(doc, path[:-1])[path[-1]] = "zz"
    else:
        parsed = cli.parse_document(doc)
        cats = parsed.categories
        slots = [(("categories", n, "hom"), cats[n], cats[n]) for n in doc.get("categories", {})]
        slots += [(("distributors", n, "entries"), cats[d["from"]], cats[d["to"]])
                  for n, d in doc.get("distributors", {}).items()]
        section, A, B = data.draw(st.sampled_from([s for s in slots if _at(doc, s[0])]))
        entries = _at(doc, section)
        i = data.draw(st.integers(0, len(entries) - 1))
        x, y, _ = entries[i]
        labels = parsed.quantaloid.hom(A.type_of(x), B.type_of(y)).elements
        label = data.draw(st.sampled_from((None,) + labels))
        if label is None:
            del entries[i]
        else:
            entries[i] = [x, y, label]
    return doc


@settings(max_examples=300, deadline=None)
@given(source=st.sampled_from(MUTATION_FILES),
       kind=st.sampled_from(["drop", "type", "label", "law"]), data=st.data())
def test_mutated_contexts_exit_with_documented_codes(tmp_path_factory, source, kind, data):
    original = json.loads(source.read_text())
    doc = _mutate(original, kind, data)
    path = tmp_path_factory.mktemp("mutated") / source.name
    path.write_text(json.dumps(doc))
    codes, errors = [], []
    for argv in MUTATION_COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            codes.append(cli.main([argv[0], str(path), *argv[1:]]))
        errors.append(err.getvalue())
    assert set(codes) <= DOCUMENTED_EXIT_CODES, codes
    if codes[0] == 1:  # validate rejects it: no computing command may compute on it
        assert codes[1:] == [1] * (len(codes) - 1), codes
    if kind == "label":  # a usage error names the bad label, not a missing field
        old = next(_at(original, p) for p in _json_paths(doc)
                   if _at(doc, p) == "zz" != _at(original, p))
        for err in (e for code, e in zip(codes, errors) if code == 2):
            assert "zz" in err or old in err, err
            assert "missing parameter" not in err and "misses the required field" not in err, err
