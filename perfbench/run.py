"""Benchmark harness for anharmonic: one command, every metric, checked outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow --seed 1 --seconds 12 --trace 0

Each workload is a set of generated JSON manifests run through
``anharmonic.cli.run_manifest`` in fresh child processes (child.py). With
``--trace 0`` it starts children one after another, each measuring for a
quarter of ``--seconds``, until their timed passes add up to ``--seconds``
(at least two children). It reports the end-to-end metrics: the median pass
time over all timed passes, and the median set-up time and peak RSS over
the children. With ``--trace 1`` one child alternates untraced and traced
passes for ``--seconds`` and the per-layer metrics come from the traced ones.

Every child runs with its BLAS pools capped at BLAS_THREADS through the
environment, set before numpy loads, so both sides of a comparison use the
same count and the CSV bytes do not depend on the machine's core count.

Output: one ``name value unit`` line per metric, an ``environment`` line,
and as the last line a JSON object with the keys correct, attempted, failed
and metrics. The full result, with the environment and every pass, is also
written under perfbench/_out/.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

# each untraced child measures for 1/CHILD_SHARE of --seconds, so a run
# samples several processes: the speed of a process on a shared VM varies
# by up to a quarter and stays with the process
CHILD_SHARE = 4
MIN_CHILDREN = 2
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170.0
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def _child_env(root):
    env = dict(os.environ)
    for var in _THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(root, args, out, trace, seconds, deadline):
    """Start one child and return (set-up seconds, its final report)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    if args.tiny:
        cmd.append("--tiny")
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_child_env(root), stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    setup_s, done = None, None
    try:
        for line in proc.stdout:
            if not line.startswith("@perfbench "):
                continue
            event = json.loads(line[len("@perfbench "):])
            if event["event"] == "ready":
                setup_s = time.perf_counter() - started
            elif event["event"] == "done":
                done = event
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or setup_s is None or done is None:
        raise ChildFailed(f"child for {args.workload} exited with code {code}")
    return setup_s, done


def _csv_match(children):
    """(matching, compared) CSV files of every pass against the first warm-up."""
    reference = children[0]["warmup"]["csv"]
    matching = compared = 0
    for i, child in enumerate(children):
        for p in ([child["warmup"]] if i else []) + child["passes"]:
            for name in sorted(set(reference) | set(p["csv"])):
                compared += 1
                matching += int(reference.get(name) == p["csv"].get(name))
    return matching, compared


def _metrics(children, setups, trace):
    every = [p for c in children for p in [c["warmup"]] + c["passes"]]
    checks = sum(p["checks"] for p in every)
    checks_failed = sum(p["checks_failed"] for p in every)
    matching, compared = _csv_match(children)
    timed = [p for c in children for p in c["passes"]]
    plain = [p["wall_s"] for p in timed if not p["traced"]]
    summary = {
        "attempted": sum(p["manifests"] for p in every),
        "failed": sum(p["manifests_failed"] for p in every),
        "check_pass_frac": (checks - checks_failed) / checks if checks else 0.0,
        "csv_match_frac": matching / compared if compared else 0.0,
        "self_time_ok": True,
    }
    if not trace:
        values = {
            "run_s": statistics.median(plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
            "check_pass_frac": summary["check_pass_frac"],
            "csv_match_frac": summary["csv_match_frac"],
        }
        return values, summary
    traced = [p for p in timed if p["traced"]]
    values = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    values["cli.csv_bytes"] = statistics.median(p["csv_bytes"] for p in traced)
    values["cli.warnings"] = statistics.median(p["warnings"] for p in traced)
    values["trace.overhead_frac"] = (
        statistics.median(p["wall_s"] for p in traced) / statistics.median(plain) - 1.0)
    # self times partition the traced spans, so they cannot exceed the pass
    summary["self_time_ok"] = all(p["self_sum_s"] <= p["wall_s"] for p in traced)
    return values, summary


def _source_identity(root):
    """The git SHA when the checkout is a repository, and a digest of src/."""
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, check=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="shrunken manifests for the harness self-check")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "anharmonic" / "cli.py").is_file():
        print("perfbench: run from the root of an anharmonic checkout "
              "(src/anharmonic is missing)", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    out_root = HERE / "_out" / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                                + ("-tiny" if args.tiny else ""))
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    children, setups = [], []
    measured = 0.0
    try:
        while True:
            started = time.monotonic()
            budget = args.seconds if args.trace else args.seconds / CHILD_SHARE
            setup_s, done = run_child(root, args, out_root / f"child{len(children)}",
                                      bool(args.trace), budget, deadline)
            setups.append(setup_s)
            children.append(done)
            measured += sum(p["wall_s"] for p in done["passes"])
            if args.trace:
                break
            # start another child unless the budget is spent or it could not finish
            if len(children) >= MIN_CHILDREN and (
                    measured >= args.seconds
                    or time.monotonic() + (time.monotonic() - started) > deadline):
                break
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    values, summary = _metrics(children, setups, bool(args.trace))
    correct = (summary["failed"] == 0 and summary["check_pass_frac"] == 1.0
               and summary["csv_match_frac"] == 1.0 and summary["self_time_ok"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    environment = {"nproc": os.cpu_count(), "blas_threads_set": BLAS_THREADS,
                   "seed": args.seed, "workload": args.workload, "trace": args.trace,
                   "children": len(children), **_source_identity(root),
                   **children[0]["environment"]}
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print("environment " + json.dumps(environment, sort_keys=True))
    out_root.mkdir(parents=True, exist_ok=True)
    (out_root / "result.json").write_text(json.dumps(
        {"environment": environment, "summary": summary, "metrics": metrics,
         "setups_s": setups, "children": children}, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
