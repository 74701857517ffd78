"""Record the correctness gate's reference values into reference.json.

    python3 perfbench/make_reference.py

Run once, at the commit whose outputs define "correct": it runs every
workload invocation once and stores its row count and the columns in
GATED_COLUMNS.  Row counts do not depend on --seed, and the gated
subcommands (moment, hybrid, lemma9) draw no random numbers.
"""

from __future__ import annotations

import csv
import json
import sys

from run import CLI_CODE, REFERENCE, WORK, child_env, spawn
from workloads import GATED_COLUMNS, WORKLOADS, invocation_key

# far above the ~1e-13 certified L-value bounds, far below any real error
TOLERANCE = 1e-9


def main() -> int:
    WORK.mkdir(exist_ok=True)
    out, err = WORK / "reference.csv", WORK / "reference.err"
    invocations = {}
    for wl in WORKLOADS.values():
        for inv in wl.invocations:
            child = spawn(
                [sys.executable, "-c", CLI_CODE, *inv, "--seed", "0"],
                out,
                err,
                child_env(),
            )
            if child.exit_code != 0:
                print(f"{invocation_key(inv)} exited {child.exit_code}", file=sys.stderr)
                return 1
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            entry = {"rows": len(rows)}
            cols = GATED_COLUMNS.get(inv[0], ())
            if cols:
                entry["values"] = {c: [float(r[c]) for r in rows] for c in cols}
            invocations[invocation_key(inv)] = entry
            print(f"{invocation_key(inv)}: {len(rows)} rows", file=sys.stderr)
    REFERENCE.write_text(
        json.dumps({"tol": TOLERANCE, "invocations": invocations}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
