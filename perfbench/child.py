"""One benchmark child: import anharmonic, run passes of a workload, report.

Started by run.py with the BLAS thread caps already in its environment, so
they hold before numpy loads. The child writes the workload's manifests,
runs one untimed warm-up pass, announces that it is ready, then runs timed
passes back to back (a closed loop from one process) until its time budget
is spent. With --trace it alternates untraced and traced passes. Events go
to stdout as lines starting with ``@perfbench``; everything else on stdout
is ignored by the parent.
"""

import argparse
import ctypes
import gc
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402


def _event(kind, **payload):
    payload["event"] = kind
    print("@perfbench " + json.dumps(payload), flush=True)


def _blas_libraries():
    """Library name, build config and thread count of each OpenBLAS loaded here."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh
                        if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    config.restype = ctypes.c_char_p
                    info.update(threads=threads(), config=config().decode())
        found.append(info)
    return found


def _environment():
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas_libraries()}


class Workload:
    """The generated manifests of one workload and their output directories."""

    def __init__(self, name, seed, tiny, out):
        self.out = out
        shutil.rmtree(out, ignore_errors=True)
        (out / "manifests").mkdir(parents=True)
        self.entries = []
        for label, manifest in workloads.manifests(name, seed, tiny):
            manifest["output_dir"] = str(out / "reports" / label)
            path = out / "manifests" / f"{label}.json"
            path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
            self.entries.append((label, str(path), manifest["output_dir"]))
        self.expected_checks = {}

    def run_pass(self, cli, tracer=None):
        """One closed-loop pass over every manifest; returns its summary."""
        shutil.rmtree(self.out / "reports", ignore_errors=True)
        gc.collect()
        outcomes = []
        started = time.perf_counter()
        for label, path, out_dir in self.entries:
            code, record = cli.run_manifest(path, out_dir=out_dir)
            outcomes.append((label, code, record))
        wall = time.perf_counter() - started
        return self._summarise(wall, outcomes, tracer)

    def _summarise(self, wall, outcomes, tracer):
        summary = {"wall_s": wall, "traced": tracer is not None, "manifests": 0,
                   "manifests_failed": 0, "checks": 0, "checks_failed": 0,
                   "warnings": 0, "csv": {}, "csv_bytes": 0}
        for label, code, record in outcomes:
            summary["manifests"] += 1
            summary["manifests_failed"] += int(code != 0)
            if record is None:
                # a manifest that exited early fails every check it would have run
                n = self.expected_checks.get(label, 1)
                summary["checks"] += n
                summary["checks_failed"] += n
                continue
            n = len(record.results)
            self.expected_checks[label] = max(n, self.expected_checks.get(label, 0))
            summary["checks"] += n
            summary["checks_failed"] += sum(not r["passed"] for r in record.results)
            summary["warnings"] += sum(w["count"] for w in record.warnings)
        for csv in sorted((self.out / "reports").glob("*/*.csv")):
            data = csv.read_bytes()
            summary["csv"][csv.relative_to(self.out).as_posix()] = \
                hashlib.sha256(data).hexdigest()
            summary["csv_bytes"] += len(data)
        if tracer is not None:
            layers, self_sum = spans.aggregate(tracer.take())
            summary["layers"] = layers
            summary["self_sum_s"] = self_sum
        return summary


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    import anharmonic.cli as cli

    source = Path(cli.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"imported anharmonic from {source}, not from this checkout")

    work = Workload(args.workload, args.seed, args.tiny, Path(args.out))
    warmup = work.run_pass(cli)
    _event("ready")

    tracer = spans.Tracer() if args.trace else None
    passes = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            with tracer.installed():
                passes.append(work.run_pass(cli, tracer))
        else:
            passes.append(work.run_pass(cli))
        # the last pass may overrun the budget; a traced run needs both kinds
        enough = len(passes) >= (2 if tracer is not None else 1)
        if enough and time.perf_counter() - started >= args.seconds:
            break

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _event("done", warmup=warmup, passes=passes, peak_rss_mb=rss_mb,
           environment=_environment())


if __name__ == "__main__":
    main()
