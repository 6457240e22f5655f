"""gradedinv benchmark: seeded, oracle-checked workloads, one pass per process.

    python3 perfbench/run.py --workload suite|param --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src/`.
Each timed pass runs single-threaded in its own fresh interpreter and builds
its inputs from scratch, so no cache inside the program can carry results
from one pass to the next.  A run makes MIN_PASSES passes, then more while
the next one is expected to end within `--seconds`.  Set-up (interpreter
start, `import gradedinv`, building the base inputs) is measured in every
pass and in SETUP_BATCH extra set-ups before the first pass and after each
pass, so its samples spread over the whole run.

--trace 0 prints the end-to-end metrics: median pass wall time, set-up time
and peak RSS.  --trace 1 runs one untraced and one traced pass and prints the
per-layer metrics of BENCHMARK.json; spans go to perfbench/out/.

The last line of standard output is the result object; the line before it
holds quartiles, sample counts, failure reasons and the environment stamp.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import workloads  # noqa: E402

# A set-up takes about 0.1 s, and the box's speed drifts from one 15 s
# stretch to the next, so set-ups are sampled in batches between the passes.
SETUP_BATCH = 20
# On a shared 2-core box the same pass varied by up to 70% between two
# consecutive passes, so a run takes the median of at least two.
MIN_PASSES = 2
# Every run, set-ups and passes included, has to end within 180 s.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(Exception):
    pass


def spawn(workload, seed, mode, deadline, spans_path=""):
    """Run one worker process; return its result with `setup_s` added."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode]
    if spans_path:
        cmd.append(spans_path)
    # Set-up is measured with bytecode caching on, as after an install; the
    # first set-up in a fresh checkout compiles, the median hides it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    start = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(deadline - start, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError("%s pass timed out" % mode)
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerError("%s worker exited %d: %s" % (mode, proc.returncode, tail[0]))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["ready"] - start
    return result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def item_outputs(workload, output):
    """The per-item pieces of an output, for the determinism comparison."""
    if workload == "suite":
        try:
            return [json.dumps(v, sort_keys=True) for v in json.loads(output["stdout"])["verdicts"]]
        except ValueError:
            return [output.get("stdout")]
    return [json.dumps(item, sort_keys=True) for item in output]


def nondeterministic(workload, first, other):
    """Items of `other` that differ from the same items of `first`."""
    if first == other:
        return 0
    a, b = item_outputs(workload, first), item_outputs(workload, other)
    return max(1, sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b)))


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    """sha256 over the package sources, which names the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "gradedinv")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def stamp(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def per_layer_units():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


class Run:
    """Bookkeeping of one benchmark run: items attempted and failed."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.oracle = oracles.Oracle(workload, seed, ROOT)
        self.attempted = 0
        self.failed = 0
        self.reasons = []
        self.self_check_ok = None
        self.first_output = None

    def judge(self, result):
        """Apply the oracle, and compare with the first pass of this run."""
        output = result["output"]
        attempted, failures = self.oracle.check(output)
        wrong = len(failures)
        differing = 0
        if self.first_output is None:
            self.first_output = output
        else:
            differing = nondeterministic(self.workload, self.first_output, output)
        if differing:
            failures.append("%d items differ from the first pass" % differing)
        self.attempted += attempted
        self.failed += min(attempted, max(wrong, differing))
        self.reasons.extend(failures)
        if not failures and self.self_check_ok is None:
            self.self_check_ok = self.oracle.rejects_corruptions(output)

    def fail_pass(self, exc):
        """A pass that raised or timed out fails every item it would judge."""
        n = workloads.ITEMS[self.workload]
        self.attempted += n
        self.failed += n
        self.reasons.append(str(exc))

    @property
    def correct(self):
        return not self.reasons and self.self_check_ok is True


def setup_batch(args, run, deadline, setups):
    """SETUP_BATCH set-ups on their own; False if one of them failed."""
    for _ in range(SETUP_BATCH):
        try:
            setups.append(spawn(args.workload, args.seed, "setup", deadline)["setup_s"])
        except WorkerError as exc:
            run.reasons.append(str(exc))
            return False
    return True


def measure(args, run, deadline):
    """Timed passes until the budget is spent, with set-ups in between."""
    passes, setups = [], []
    pass_time = 0.0
    ok = setup_batch(args, run, deadline, setups)
    while ok:
        start = time.monotonic()
        try:
            result = spawn(args.workload, args.seed, "pass", deadline)
        except WorkerError as exc:
            run.fail_pass(exc)
            break
        pass_time += time.monotonic() - start
        run.judge(result)
        passes.append(result)
        setups.append(result["setup_s"])
        ok = setup_batch(args, run, deadline, setups)
        if len(passes) >= MIN_PASSES and pass_time * (len(passes) + 1) / len(passes) > args.seconds:
            break
    samples = {
        "wall_s": [p["wall_s"] for p in passes],
        "setup_s": setups,
        "peak_rss_mb": [p["rss_mb"] for p in passes],
    }
    metrics, detail = {}, {}
    for name, values in samples.items():
        if not values:
            continue
        q1, med, q3 = quartiles(values)
        metrics[name] = {"value": med, "unit": END_TO_END_UNITS[name]}
        detail[name] = {"median": med, "q1": q1, "q3": q3, "n": len(values), "samples": values}
    detail["item_s"] = [p["item_s"] for p in passes]
    return metrics, detail


def measure_traced(args, run, deadline):
    """One untraced and one traced pass; per-layer metrics of the latter."""
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, "spans-%s-%d.tsv" % (args.workload, args.seed))
    try:
        plain = spawn(args.workload, args.seed, "pass", deadline)
        run.judge(plain)
        traced = spawn(args.workload, args.seed, "trace", deadline, spans_path)
        run.judge(traced)
    except WorkerError as exc:
        run.fail_pass(exc)
        return {}, {}
    layers = dict(traced["layers"])
    layers["trace.untraced_wall_s"] = plain["wall_s"]
    layers["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1.0
    metrics = {}
    for name, unit in per_layer_units().items():
        if name not in layers:
            raise SystemExit("per-layer metric %r is not produced by the tracer" % name)
        metrics[name] = {"value": layers[name], "unit": unit}
    return metrics, {"layers": layers, "wrapped": traced["wrapped"], "spans_file": spans_path}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gradedinv", "__init__.py")):
        print("error: no gradedinv sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    run = Run(args.workload, args.seed)
    if args.trace:
        metrics, detail = measure_traced(args, run, deadline)
    else:
        metrics, detail = measure(args, run, deadline)
    detail.update(
        stamp=stamp(args),
        attempted=run.attempted,
        failed=run.failed,
        failures=run.reasons[:20],
        oracle_rejects_corruptions=run.self_check_ok,
    )
    os.makedirs(OUT, exist_ok=True)
    name = "result-%s-%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    detail.pop("layers", None)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": run.correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed if run.attempted else 1,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
