"""The benchmark tracer finds every library name it wraps.

``perfbench/tracing.install`` looks the layer entry points up by name, so a
refactor that deletes or renames one breaks the traced benchmark run.  This
test installs the tracer in a fresh interpreter and changes nothing under
``perfbench/``.  A refactor that moves work onto a name the tracer does not
wrap keeps every name but empties a layer, so the second test runs the
benchmark workloads, shrunk, under the tracer and reads every layer's metrics.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_every_wrapped_name():
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    code = f"import sys; sys.path[:0] = {paths!r}; import tracing; tracing.install(tracing.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


# The failure counts, which read 0 whenever every solve converges and every item is kept.
FAILURE_COUNTS = {"qp.nonconverged", "experiments.excluded_items", "experiments.redraws"}

TRACED_WORKLOADS = """
import contextlib, io, json, sys
sys.path[:0] = {paths!r}
import run, tracing
import lama.cli
tracer = tracing.Tracer()
tracing.install(tracer)
for name, workload in sorted(run.WORKLOADS.items()):
    argv, _, check = workload(0, True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = lama.cli.run(argv)
    assert code == 0 and not check(out.getvalue()), (name, code, check(out.getvalue()))
print(json.dumps(tracing.layer_metrics(tracer.spans)))
"""


def test_tracer_sees_work_in_every_layer():
    # A refactor that moves work off a wrapped name leaves that layer's metrics at 0.
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    env = {**os.environ, "LAMA_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", TRACED_WORKLOADS.format(paths=paths)], capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(name for name, v in metrics.items() if not v) == sorted(FAILURE_COUNTS)
