"""Record the SHA-256 of every benchmark verb's stdout in digests.json.

    python3 perfbench/record_digests.py

Run from the root of a checkout whose outputs are known to be right; the
benchmark then requires every later run to print the same bytes.
"""

import json
import sys
import time
from pathlib import Path

from run import HERE, run_child

import checks
import workloads


def main() -> int:
    root = Path.cwd()
    digests = {}
    for name in sorted(workloads.WORKLOADS):
        rep = run_child(root, name, 0, False, time.monotonic() + 600)
        for verb in rep["verbs"]:
            digests[verb["key"]] = checks.digest(verb["stdout"])
    with open(HERE / "digests.json", "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("recorded %d digests" % len(digests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
