"""Compare the outputs of two source trees on the shipped and benchmark manifests.

    python tools/compare_configs.py PARENT_TREE CHANGE_TREE

Each tree is a checkout of this repository. Every manifest of its
``configs/`` (at its own seed) and every manifest of the workloads of its
``perfbench/workloads.py`` (generated at seed ``_WORKLOAD_SEED``) runs in a
fresh ``python -c`` process that imports the tree's ``src`` and calls its
``anharmonic.cli.run_manifest``, as ``perfbench/child.py`` does, with one
BLAS thread and every series CSV written. No command line is read, so two
trees compare across a change of the CLI. The workloads file is
read and executed from source, as ``tests/test_manifests.py`` does, so
nothing is written next to it.

For each manifest the tool prints the exit codes and the peak RSS of the
two processes (``ru_maxrss`` of the child, read with ``os.wait4``), whether
each CSV is byte for byte the same, every report row whose value or verdict moved (with its
relative change) and every warning category whose count or first message
changed. It exits 1 when a CSV, a row's verdict, the set of CSVs or rows,
an exit code, or a warning category's count or first message differs, and
0 otherwise: a value that moves with its verdict kept is shown, not
failed, and a peak RSS is only shown. A first message catches warnings of
one category that come in another order with the same count.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
_WORKLOAD_SEED = 7
# a child's program: run the manifest argv[1] into argv[2], exit with its code
_CHILD = ("import sys; from anharmonic.cli import run_manifest; "
          "sys.exit(run_manifest(sys.argv[1], out_dir=sys.argv[2], fmt='both')[0])")


def _workload_manifests(tree: Path, seed: int) -> dict:
    """{"<workload>/<name>": manifest} of the tree's benchmark workloads."""
    path = tree / "perfbench" / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return {f"{workload}/{name}": manifest for workload in module.NAMES
            for name, manifest in module.manifests(workload, seed)}


def _config_manifests(tree: Path) -> dict:
    return {f"configs/{path.stem}": json.loads(path.read_text(encoding="utf-8"))
            for path in sorted((tree / "configs").glob("*.json"))}


def _child(command: list, env: dict, cwd: Path) -> tuple:
    """Run ``command`` to its end: (exit code, stderr, peak RSS in MB), the
    peak the kernel accounted to the child, read as it is reaped."""
    with subprocess.Popen(command, env=env, cwd=cwd, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as proc:
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stderr, usage.ru_maxrss / 1024.0


def _run(tree: Path, manifest: dict, out: Path) -> dict:
    """Run one manifest in a fresh process: its exit code, peak RSS, report
    rows, (count, first message) per warning category and CSV bytes."""
    out.mkdir(parents=True)
    config = out / "manifest.json"
    config.write_text(json.dumps(manifest), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.update((name, "1") for name in _THREAD_VARIABLES)
    code, stderr, rss_mb = _child([sys.executable, "-c", _CHILD, str(config), str(out / "run")],
                                  env, out)
    outcome = {"code": code, "stderr": stderr.strip(), "rss_mb": rss_mb, "rows": {},
               "warnings": {}, "csv": {}}
    report = out / "run" / "report.json"
    if report.exists():
        record = json.loads(report.read_text(encoding="utf-8"))
        outcome["rows"] = {row["name"]: row for row in record["results"]}
        outcome["warnings"] = {w["category"]: (w["count"], w["message"])
                               for w in record["warnings"]}
        outcome["csv"] = {p.name: p.read_bytes() for p in sorted((out / "run").glob("*.csv"))}
    return outcome


def _same(a, b) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _compare(label: str, old: dict, new: dict) -> tuple:
    """Print one manifest's differences; (failures, moved rows)."""
    failures, moved = 0, 0
    print(f"{label}: exit {old['code']} / {new['code']}, "
          f"peak RSS {old['rss_mb']:.1f} / {new['rss_mb']:.1f} MB")
    if old["code"] != new["code"]:
        failures += 1
        for side, outcome in (("parent", old), ("change", new)):
            if outcome["stderr"]:
                print(f"  {side} stderr: {outcome['stderr']}")
    for name in sorted(set(old["csv"]) | set(new["csv"])):
        a, b = old["csv"].get(name), new["csv"].get(name)
        state = ("identical" if a == b else "missing in one tree" if a is None or b is None
                 else "DIFFERS")
        failures += a != b
        print(f"  csv {name}: {state}")
    for name in sorted(set(old["rows"]) | set(new["rows"])):
        a, b = old["rows"].get(name), new["rows"].get(name)
        if a is None or b is None:
            failures += 1
            print(f"  row {name}: missing in the {'parent' if a is None else 'change'}")
            continue
        if a["passed"] != b["passed"]:
            failures += 1
        # schema 4 writes a non-finite value as "inf", "-inf" or "nan", schema 3 as a float
        va, vb = float(a["value"]), float(b["value"])
        if not _same(va, vb) or a["passed"] != b["passed"]:
            moved += 1
            rel = abs(vb - va) / abs(va) if va and math.isfinite(va) else math.nan
            verdicts = "pass" if a["passed"] else "FAIL"
            if a["passed"] != b["passed"]:
                verdicts += " -> " + ("pass" if b["passed"] else "FAIL")
            print(f"  row {name}: {va!r} -> {vb!r} (rel {rel:.2e}), {verdicts}")
    for name in sorted(set(old["warnings"]) | set(new["warnings"])):
        a, b = old["warnings"].get(name), new["warnings"].get(name)
        if a == b:
            print(f"  warning {name}: {a[0]}, first message kept")
            continue
        failures += 1
        for side, entry in (("parent", a), ("change", b)):
            print(f"  warning {name} ({side}): " + ("none" if entry is None
                                                    else f"{entry[0]}, first {entry[1]!r}"))
    if not (old["warnings"] or new["warnings"]):
        print("  warnings: none")
    return failures, moved


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the tree before the change")
    ap.add_argument("change", type=Path, help="the tree with the change")
    args = ap.parse_args(argv)
    trees = [args.parent.resolve(), args.change.resolve()]
    old_set, new_set = ({**_config_manifests(t), **_workload_manifests(t, _WORKLOAD_SEED)}
                        for t in trees)
    failures = moved = csvs = 0
    with tempfile.TemporaryDirectory(prefix="compare_configs_") as scratch:
        for label in sorted(set(old_set) | set(new_set)):
            if label not in old_set or label not in new_set:
                failures += 1
                print(f"{label}: missing in the {'parent' if label in new_set else 'change'}")
                continue
            outcomes = [_run(tree, m, Path(scratch) / side / label)
                        for tree, m, side in zip(trees, (old_set[label], new_set[label]),
                                                 ("parent", "change"))]
            found, rows = _compare(label, *outcomes)
            failures, moved = failures + found, moved + rows
            csvs += len(set(outcomes[0]["csv"]) | set(outcomes[1]["csv"]))
    print(f"{csvs} CSVs compared, {moved} rows moved, {failures} differences that fail")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
