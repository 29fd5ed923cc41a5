"""Tiny-size self-check of the benchmark harness.

Run from the root of a checkout:

    python3 perfbench/selfcheck.py

For every workload, with shrunken manifests and tracing off and on, it checks
that run.py exits 0, that its last line has exactly the keys correct,
attempted, failed and metrics, that it emits every metric BENCHMARK.json
names with that unit and a finite value, and that in every traced pass the
per-layer self times sum to at most the pass wall time. It also checks that
the exponents workload makes no STFT call, that the installed tracer leaves
no module binding of a traced function unpatched, and that run.py refuses
to run, printing no result, in a directory holding only BENCHMARK.json and
perfbench/. Exits 1 and lists the failures when any check fails.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def _run(cwd, workload, trace):
    cmd = [sys.executable, str(Path("perfbench") / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_workload(root, spec, workload, trace, problems):
    where = f"{workload} trace={trace}"
    proc = _run(root, workload, trace)
    if proc.returncode != 0:
        problems.append(f"{where}: exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"{where}: attempted={result['attempted']!r}")
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if sorted(got) != sorted(listed):
        problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(listed) - set(got))}, "
                        f"extra {sorted(set(got) - set(listed))}")
    for name, m in got.items():
        if m.get("unit") != listed.get(name):
            problems.append(f"{where}: {name} has unit {m.get('unit')!r}")
        if not (isinstance(m.get("value"), (int, float)) and math.isfinite(m["value"])):
            problems.append(f"{where}: {name} has value {m.get('value')!r}")
    if not trace:
        return
    out = HERE / "_out" / f"{workload}-seed7-trace1-tiny" / "result.json"
    for child in json.loads(out.read_text())["children"]:
        for p in child["passes"]:
            if not p["traced"]:
                continue
            layer_self = (sum(p["layers"][f"{layer}.self_s"] for layer in spans.LAYERS)
                          + p["layers"]["cli.run_manifest_self_s"])
            if layer_self > p["wall_s"]:
                problems.append(f"{where}: layer self times {layer_self} exceed the "
                                f"pass wall time {p['wall_s']}")
    if workload == "exponents" and got["phasespace.stft_calls"]["value"] != 0:
        problems.append("exponents: phasespace.stft_calls is not zero")


def check_bindings(root, problems):
    """While the tracer is installed no anharmonic module may still reach an
    original function, whichever name or module it was imported under."""
    sys.path.insert(0, str(root / "src"))
    import anharmonic.cli  # noqa: F401  (cli imports every layer module)

    originals = {id(getattr(sys.modules["anharmonic." + module], attr))
                 for _, module, attr, _ in spans.FUNCTIONS}
    with spans.Tracer().installed():
        for name, module in sorted(sys.modules.items()):
            if name == "anharmonic" or name.startswith("anharmonic."):
                for key, value in vars(module).items():
                    if id(value) in originals:
                        problems.append(f"tracer left {name}.{key} unpatched")


def check_bare_directory(root, problems):
    bare = HERE / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(root / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(bare, "flow", 0)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        problems.append("bare directory: run.py did not refuse to run")
    shutil.rmtree(bare)


def main():
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    problems = []
    for workload in workloads.NAMES:
        for trace in (0, 1):
            check_workload(root, spec, workload, trace, problems)
            print(f"checked {workload} trace={trace}", flush=True)
    check_bindings(root, problems)
    check_bare_directory(root, problems)
    for p in problems:
        print("FAIL " + p)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
