"""The package surface and the import graph of the command line."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cohom1
from cohom1 import classify

SRC = Path(cohom1.__file__).resolve().parent.parent


def run_python(code: str) -> str:
    """stdout of ``code`` in a fresh interpreter on this source tree, with
    warnings as errors."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLazyReExports:
    @pytest.mark.parametrize("name", cohom1.__all__)
    def test_name_is_its_submodules_object(self, name):
        obj = getattr(cohom1, name)
        module = sys.modules[obj.__module__]
        assert module.__name__.rsplit(".", 1)[0] == "cohom1"
        assert getattr(module, name) is obj

    def test_dir_lists_every_export(self):
        assert set(cohom1.__all__) <= set(dir(cohom1))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nope"):
            cohom1.nope

    def test_star_import_yields_all(self):
        namespace = {}
        exec("from cohom1 import *", namespace)
        assert set(namespace) - {"__builtins__"} == set(cohom1.__all__)


class TestCliImportGraph:
    def test_import_cli_loads_no_numpy(self):
        out = run_python(textwrap.dedent("""
            import json, sys
            import cohom1.cli
            roots = ("cohom1", "numpy")
            print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in roots)))
        """))
        assert json.loads(out) == [
            "cohom1", "cohom1.actions", "cohom1.classify", "cohom1.cli", "cohom1.errors",
        ]

    def test_integer_subcommands_run_with_numpy_blocked(self):
        out = run_python(textwrap.dedent("""
            import contextlib, io, json, sys
            sys.modules["numpy"] = None
            from cohom1 import cli
            triple = ["--space", "so", "--g", "6", "--m0", "2", "--m1", "2"]
            results = {}
            for argv in (["table"], ["classify", *triple], ["degree", *triple, "--j", "-2"]):
                text = io.StringIO()
                with contextlib.redirect_stdout(text):
                    code = cli.main(argv)
                results[argv[0]] = [code, json.loads(text.getvalue())]
            print(json.dumps(results))
        """))
        results = json.loads(out)
        assert {sub: code for sub, (code, _body) in results.items()} == {
            "table": 0, "classify": 0, "degree": 0,
        }
        assert results["table"][1]["verdicts"] == [
            v.to_dict() for v in classify.examples_table()
        ]
        assert results["degree"][1]["degree"] == -11
