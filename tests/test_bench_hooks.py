"""The traced bench harness still finds every entry point it wraps.

`bench/traced_server.py` replaces named patternkit attributes with
recording wrappers; a rename or deletion in patternkit makes its `install`
raise.  This runs `install` in a fresh interpreter, because it patches
process-wide classes such as `socket.socket`.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer
from traced_server import install
install(Tracer())
"""


def test_tracer_installs_on_current_patternkit():
    result = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "bench")],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
