"""One CLI process of the benchmark.

    python3 perfbench/child.py REPORT MODE -- CLI-ARGS...

Run from the repository root.  Imports ``lama.cli`` from ``src/``, then, in
MODE ``plain`` or ``trace``, calls ``lama.cli.run(CLI-ARGS)`` once with the
CLI's stdout untouched; MODE ``trace`` first installs the span wrappers of
``tracing.py``.  MODE ``warm`` only imports, which fills the bytecode and
page caches before anything is timed.  The timings, peak memory, spans and
library versions go as JSON to the file REPORT when the CLI returns.
Times are ``time.monotonic()`` readings, which on Linux share one clock
with the parent process.
"""

import json
import os
import platform
import resource
import sys
import time


def _versions() -> dict:
    import importlib.util

    import numpy as np
    import scipy

    try:
        openblas = np.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
    }


def main() -> int:
    report_path, mode = sys.argv[1], sys.argv[2]
    argv = sys.argv[4:]
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import_start = time.monotonic()
    import lama.cli

    ready = time.monotonic()
    if not os.path.abspath(lama.cli.__file__).startswith(src + os.sep):
        print(f"lama imported from {lama.cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    report = {"ready": ready, "import_s": ready - import_start}
    rc = 0
    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    if mode != "warm":
        start = time.monotonic()
        rc = lama.cli.run(argv)
        sys.stdout.flush()
        report["work_s"] = time.monotonic() - start
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["versions"] = _versions()
    if tracer is not None:
        report["spans"] = tracer.spans
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
