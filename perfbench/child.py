"""One workload process: run ``brainformer.cli.main`` in-process, traced.

    python3 child.py --level {timeline,full,setup} --out DIR -- ARGV...

ARGV is the ``brainformer`` command line. The package is imported from
``src/`` of the checkout holding this file. Writes ``DIR/child.json``
(exit code, set-up end time, peak RSS, counters, environment) and, unless
``--level setup``, ``DIR/spans.jsonl``. ``--level setup`` stops at the first
timed step or trial, so the run measures set-up only.

The process never calls ``gc.collect()`` and leaves the GC thresholds
alone: garbage autodiff graphs piling up between cyclic-GC passes is a
property of the program that ``peak_rss_mb`` must show.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _blas_threads(np):
    """OpenBLAS thread count read from the library numpy loaded, or None."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import platform

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    mem_kb = None
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemTotal:"):
                    mem_kb = int(line.split()[1])
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(mem_kb / 1024) if mem_kb else None,
        "machine": platform.machine(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--level", choices=["timeline", "full", "setup"], required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import brainformer
    import brainformer.cli
    from tracer import SetupDone, Tracer

    tracer = Tracer(brainformer, full=args.level == "full",
                    setup_only=args.level == "setup")
    tracer.install()
    result = {"rc": None, "error": None}
    try:
        result["rc"] = brainformer.cli.main(cli_argv)
    except SetupDone:
        result["rc"] = 0
    except Exception:  # reported as a failed run, with its traceback
        result["error"] = traceback.format_exc()
    finally:
        tracer.uninstall()
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["package_file"] = brainformer.__file__
    result.update(tracer.summary())
    if args.level != "setup":
        result["env"] = environment()
        tracer.write_spans(os.path.join(args.out, "spans.jsonl"))
    with open(os.path.join(args.out, "child.json"), "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
