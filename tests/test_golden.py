"""Golden CLI outputs: every subcommand on ``contexts/*.json``, byte for byte.

Each case runs ``qfca.cli.main`` in-process and compares stdout with
``tests/data/golden/<context>/<case>.out`` and the exit code with
``tests/data/golden/exit_codes.json``.  An intended output change must show
up as a diff of these files; regenerate them with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

import qfca.cli as cli

HERE = pathlib.Path(__file__).parent
CONTEXTS = HERE.parent / "contexts"
GOLDEN = HERE / "data" / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

PROPS = list(cli.PROPERTIES)
KIND_PROPS = [prop for prop, (keys, _) in cli.PROPERTIES.items() if "kind" in keys]
COMMANDS = (
    [["validate"], ["girard"], ["tr"]]
    + [["concepts", "--mode", mode, "--out", out] for mode in ("fca", "rst")
       for out in ("json", "dot")]
    + [["verify", "--prop", prop] for prop in PROPS]
    + [["verify", "--prop", prop, "--data", "kind=rst"]
       for prop in KIND_PROPS]
)
CASES = [(path.stem, command) for path in sorted(CONTEXTS.glob("*.json"))
         for command in COMMANDS]


def case_id(stem, command) -> str:
    return f"{stem}/" + "_".join(a.lstrip("-").replace("=", "-") for a in command)


def run_case(stem, command):
    argv = [command[0], str(CONTEXTS / f"{stem}.json")] + command[1:]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@pytest.mark.parametrize("stem,command", CASES, ids=[case_id(*c) for c in CASES])
def test_golden_output(stem, command):
    code, out = run_case(stem, command)
    key = case_id(stem, command)
    assert code == json.loads(EXIT_CODES.read_text())[key]
    assert out == (GOLDEN / f"{key}.out").read_text(encoding="utf-8")


def test_the_property_table_is_the_recorded_one():
    # the cases come from the table, so a property dropped from it or renamed
    # in it would lose its golden cases without failing them
    recorded = json.loads(EXIT_CODES.read_text())
    props = {key.split("/verify_prop_")[1].split("_data_")[0]
             for key in recorded if "/verify_prop_" in key}
    assert sorted(cli.PROPERTIES) == sorted(props)
    assert sorted(case_id(*case) for case in CASES) == sorted(recorded)


def regenerate() -> None:
    codes = {}
    for stem, command in CASES:
        code, out = run_case(stem, command)
        key = case_id(stem, command)
        codes[key] = code
        path = GOLDEN / f"{key}.out"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(out, encoding="utf-8")
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(codes)} cases under {GOLDEN}")


if __name__ == "__main__":
    regenerate()
