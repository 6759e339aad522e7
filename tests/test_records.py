"""The package's value records keep the contract their callers read, and
`patternd` and `patternsh` start without loading modules they do not run."""

import ast
import copy
import os
import pickle
import shutil
import subprocess
import sys
from importlib.util import resolve_name
from pathlib import Path

import pytest

from patternkit.client_cli import ClientConfig
from patternkit.creational import SessionTemplate
from patternkit.expr import Binary, Context, Number, Variable
from patternkit.messaging import Request
from patternkit.server import ServerConfig
from patternkit.wire import Err, Evt, Ok

SRC = Path(__file__).resolve().parent.parent / "src"

# each record: built positionally, the same record built by keyword, a
# record of the same type that differs in one field, and the first one's repr
RECORDS = [
    (Ok("x"), Ok(payload="x"), Ok(), "Ok(payload='x')"),
    (Err("PARSE", "m"), Err(code="PARSE", message="m"), Err("PARSE", "n"),
     "Err(code='PARSE', message='m')"),
    (Evt("temp 1"), Evt(line="temp 1"), Evt("temp 2"), "Evt(line='temp 1')"),
    (Number(1), Number(value=1), Number(2), "Number(value=1)"),
    (Variable("x"), Variable(name="x"), Variable("y"), "Variable(name='x')"),
    (Binary("+", Number(1), Variable("x")), Binary(op="+", left=Number(1), right=Variable("x")),
     Binary("-", Number(1), Variable("x")),
     "Binary(op='+', left=Number(value=1), right=Variable(name='x'))"),
    (Context({"x": 1}), Context(bindings={"x": 1}), Context(), "Context(bindings={'x': 1})"),
    (ServerConfig(0, "json", 5, "p.log"),
     ServerConfig(port=0, family="json", max_conns=5, log_path="p.log"), ServerConfig(),
     "ServerConfig(port=0, family='json', max_conns=5, log_path='p.log')"),
    (SessionTemplate("hi", "doc", ["temp"]),
     SessionTemplate(greeting="hi", initial_doc="doc", watched_topics=["temp"]),
     SessionTemplate("hi", "doc", []),
     "SessionTemplate(greeting='hi', initial_doc='doc', watched_topics=['temp'])"),
    (Request("EVAL", "1", None), Request(verb="EVAL", args="1"), Request("EVAL"),
     "Request(verb='EVAL', args='1', session=None)"),
    (ClientConfig("h", 1, None, 10), ClientConfig(host="h", port=1, timeout_ms=10),
     ClientConfig(), "ClientConfig(host='h', port=1, script=None, timeout_ms=10)"),
]
# fields that hold a dict or list have no hash, and SessionTemplate can change
UNHASHABLE = (Context, SessionTemplate)


@pytest.mark.parametrize("record, same, other, shown", RECORDS,
                         ids=[case[0].__class__.__name__ for case in RECORDS])
class TestRecordContract:
    def test_equal_by_type_and_fields(self, record, same, other, shown):
        assert record == same and not record != same
        assert record != other and record != object()

    def test_hash_agrees_with_equality(self, record, same, other, shown):
        if isinstance(record, UNHASHABLE):
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(same)

    def test_repr_names_every_field(self, record, same, other, shown):
        assert repr(record) == shown

    def test_fields_are_frozen_but_on_the_template(self, record, same, other, shown):
        name = shown.partition("(")[2].partition("=")[0]  # the first field
        if isinstance(record, SessionTemplate):
            setattr(record, name, "changed")
            assert getattr(record, name) == "changed"
            return
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(other, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert record == same

    def test_copies_are_equal(self, record, same, other, shown):
        for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert clone == record and type(clone) is type(record)


def test_records_of_different_types_differ():
    assert Ok("x") != Evt("x") and Evt("x") != Ok("x")
    assert Number(1) != Variable(1)


# run in a fresh interpreter: what a bare one holds, then what the imports add
NEW_MODULES = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import patternkit.server, patternkit.client_cli
print(patternkit.server.__file__)
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_patternd_and_patternsh_start_from_source_without_unused_modules(tmp_path):
    """Imported as `bench/run.py` starts the server, from a tree with no
    bytecode and writing none: compiling a `\\N{...}` escape, for one,
    loads `unicodedata`.  `json` and the catalogue's `creational` and
    `structural_kit` are loaded only by a client's JSON parse or by `--log`."""
    shutil.copytree(SRC / "patternkit", tmp_path / "patternkit",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = subprocess.run([sys.executable, "-B", "-c", NEW_MODULES, str(tmp_path)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    path, modules = result.stdout.split("\n", 1)
    assert Path(path) == tmp_path / "patternkit" / "server.py"
    added = set(modules.split())
    assert "patternkit.server" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "json",
                        "unicodedata", "patternkit.creational", "patternkit.structural_kit"}


def test_no_module_of_the_package_imports_dataclasses():
    """Nor `patternkit.server`: under `python -m patternkit.server` such an
    import would run `server.py` a second time, as a second module."""
    imported = {}
    for path in sorted((SRC / "patternkit").glob("*.py")):
        modules = imported.setdefault(path.name, set())
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules.update(a.name for a in node.names)
            elif isinstance(node, ast.ImportFrom):  # also `from . import server`
                base = resolve_name("." * node.level + (node.module or ""), "patternkit")
                modules.add(base)
                modules.update(base + "." + a.name for a in node.names)
    assert "server.py" in imported
    assert [name for name, modules in imported.items() if "dataclasses" in modules] == []
    assert [name for name, modules in imported.items() if "patternkit.server" in modules] == []


@pytest.mark.parametrize("module, shown", [
    ("patternkit.server", ["--port", "--workers", "--family", "--max-conns", "--log"]),
    ("patternkit.client_cli", ["default 127.0.0.1", "default 7465", "default 5000"]),
])
def test_help_exits_zero_and_shows_the_options(module, shown):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-m", module, "--help"], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert all(text in result.stdout for text in shown), result.stdout
