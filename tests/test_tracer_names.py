"""The benchmark tracer finds every library name it wraps.

``perfbench/tracing.install`` looks the layer entry points up by name, so a
refactor that deletes or renames one breaks the traced benchmark run.  This
test installs the tracer in a fresh interpreter and changes nothing under
``perfbench/``.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tracer_installs_on_every_wrapped_name():
    paths = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    code = f"import sys; sys.path[:0] = {paths!r}; import tracing; tracing.install(tracing.Tracer())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
