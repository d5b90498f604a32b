"""Record ``expected.json``: the outputs that ops without an oracle must match.

Run from the repository root, at a commit whose outputs are known good::

    PYTHONPATH=src PYTHONHASHSEED=0 python3 perfbench/record.py

It runs every golden-checked op of every workload, at both sizes, for
several seeds, and refuses to write if one key gets two different outputs
(verifier condition sets and preset results must not depend on the seed).
Command-line ops that exit non-zero are left out: they do not apply to that
context file.
"""

import json
import os
import sys

import qfca

import workloads

SEEDS = (0, 1, 2)


def main() -> int:
    golden = {}
    for size in ("full", "smoke"):
        for workload in ("lattice", "verify", "cli"):
            for seed in SEEDS if workload == "verify" else SEEDS[:1]:
                setup = workloads.build(qfca, workload, seed, size, None)
                try:
                    for op in setup.ops:
                        if op.golden is None:
                            continue
                        got = op.canon(op.run())
                        if workload == "cli" and got["exit"] != 0:
                            print(f"skip {op.golden}: exit {got['exit']}", file=sys.stderr)
                            continue
                        if golden.setdefault(op.golden, got) != got:
                            print(f"{op.golden} differs between inputs", file=sys.stderr)
                            return 1
                finally:
                    for path in setup.files:
                        os.remove(path)
    for label, n in (("ref-14x14-seed3/fca", 230), ("ref-14x14-seed3/rst", 118)):
        if golden[f"lattice/{label}"]["concepts"] != n:
            print(f"reference {label} does not have {n} concepts", file=sys.stderr)
            return 1
    path = os.path.join(workloads.HERE, "expected.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} expected outputs to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
