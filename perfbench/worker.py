"""One set-up or one timed pass of a workload, in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <setup|pass|trace> [spans-file]

Prints one JSON line: the monotonic time at which set-up finished, and for a
pass its wall time, the program's outputs and the process's peak RSS.  In
`trace` mode the pass runs with every layer wrapped, and the spans are
written to the spans file after the pass.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import gradedinv as gi  # noqa: E402

import workloads  # noqa: E402


def peak_rss_mb():
    """This process's peak RSS.

    On Linux `ru_maxrss` keeps the high-water mark of the process image that
    called exec, here a fork of run.py, so read VmHWM instead.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv):
    workload, seed, mode = argv[0], int(argv[1]), argv[2]
    inputs = workloads.build_inputs(gi, workload)
    ready = time.monotonic()
    result = {"ready": ready}
    if mode == "setup":
        print(json.dumps(result))
        return 0
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer(gi, "%s-%d" % (workload, seed))
        result["wrapped"] = tracer.install()
    start = time.perf_counter()
    output, item_s = workloads.run_pass(gi, workload, inputs, seed)
    wall = time.perf_counter() - start
    result["item_s"] = item_s
    result["wall_s"] = wall
    result["rss_mb"] = peak_rss_mb()
    result["output"] = output
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary(wall)
        with open(argv[3], "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart\tend\tparent\tpass\n")
            for sid, name, s, e, parent, pid in tracer.spans:
                fh.write("%d\t%s\t%.9f\t%.9f\t%s\t%s\n" % (sid, name, s, e, "" if parent is None else parent, pid))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
