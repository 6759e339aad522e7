"""The traced bench harness still finds, and still times, every entry point
it wraps.

`bench/traced_server.py` replaces named patternkit attributes with
recording wrappers; a rename or deletion in patternkit makes its `install`
raise, and code that stops calling a wrapped name leaves its span empty.
Each test runs `install` in a fresh interpreter, because it patches
process-wide classes such as `socket.socket`.
"""

import json
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

# one line of every verb through an in-process session, recorded; prints
# the names of the spans recorded at least once
TRACE_EVERY_VERB = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2], sys.argv[3]]
from analysis import SpanStats, load_trace
from tracer import Tracer
from traced_server import install
tracer = Tracer()
install(tracer)
from test_server import EVERY_VERB, InProcessSession
tracer.start()
with InProcessSession() as client:
    replies = client.feed("".join(line + "\\n" for line in EVERY_VERB).encode())
tracer.stop()
assert replies[-1] == "OK bye", replies
tracer.dump(sys.argv[4])
counts = SpanStats(load_trace(sys.argv[4])).count
print(json.dumps(sorted(name for name, count in counts.items() if count)))
"""

# the spans the per-layer metrics of a traced run are computed from
LAYER_SPANS = {"server.handle_line", "server.enqueue", "server.pump_lines",
               "server.queue_reply", "wire.parse_request", "wire.render_reply",
               "session_commands.write", "session_commands.undo", "session_commands.restore",
               "policies.parse_strategy", "policies.apply_discount", "messaging.publish",
               "messaging.chat_send"}


def run_python(script, *args):
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, timeout=60)


def test_tracer_installs_on_current_patternkit():
    result = run_python(INSTALL, ROOT / "src", ROOT / "bench")
    assert result.returncode == 0, result.stderr


def test_every_verb_feeds_the_spans_of_the_layer_metrics(tmp_path):
    result = run_python(TRACE_EVERY_VERB, ROOT / "src", ROOT / "bench", ROOT / "tests",
                        tmp_path / "trace.json")
    assert result.returncode == 0, result.stderr
    recorded = set(json.loads(result.stdout.splitlines()[-1]))
    assert LAYER_SPANS <= recorded, sorted(LAYER_SPANS - recorded)
