import os
import subprocess
import sys
from pathlib import Path

import yflow
from yflow.svgplot import _ticks

# Runs in a child process under a 2 GiB address-space cap, so a tick loop
# that never ends fails with MemoryError or the timeout instead of
# exhausting the machine.
ONE_ULP = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))
import sys
from yflow.svgplot import _ticks, render_series
print(len(_ticks(1 - 2**-53, 1 + 2**-52)))
render_series([0.0, 1e-3], [1.0, 1.0 + 2**-52], "vol", sys.argv[1])
"""


def test_ticks_end_when_step_is_below_value_resolution(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(yflow.__file__).resolve().parents[1]))
    out = tmp_path / "vol.svg"
    proc = subprocess.run([sys.executable, "-c", ONE_ULP, str(out)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) >= 1
    assert out.read_bytes().startswith(b"<svg") and b"vol" in out.read_bytes()


def test_ticks_unchanged_on_ordinary_spans():
    assert _ticks(0.0, 1.0) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert _ticks(-2.0, 3.0) == [-2.0, 0.0, 2.0]
