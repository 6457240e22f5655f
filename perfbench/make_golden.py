"""Write golden_suite.json: the `suite --json` verdicts minus their notes.

    python3 perfbench/make_golden.py

The verdicts are those of the CLI's default seed (2024); the oracle compares
the output of every seed with them.  The committed file was written at the
seed commit.  Rewrite it only when a change means to alter a verdict, and say
so in CHANGES.md.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gradedinv as gi  # noqa: E402
from gradedinv import cli  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


def main():
    output, _seconds = workloads.run_pass(gi, "suite", None, cli.DEFAULT_SEED)
    if output["exit"] != 0:
        raise SystemExit("suite exited %d" % output["exit"])
    verdicts = [
        {k: v for k, v in verdict.items() if k != "notes"}
        for verdict in json.loads(output["stdout"])["verdicts"]
    ]
    with open(oracles.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"verdicts": verdicts}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("%d verdicts written to %s" % (len(verdicts), oracles.GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
