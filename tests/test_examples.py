"""The example scripts run end to end.

Each example is executed as ``__main__`` in-process, so a deleted or
renamed API that an example still calls fails here instead of silently.
"""

import runpy
from pathlib import Path

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def _run(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = _run("quickstart.py", capsys)
    assert "result: all checked properties HOLD" in out
    assert "result: 2 property violation(s)" in out
    assert "VIOLATION [P.11]" in out and "VIOLATION [P.30]" in out


def test_custom_property(capsys):
    out = _run("custom_property.py", capsys)
    assert "explicit CTL:      HOLDS" in out
    assert "BDD-symbolic CTL:  HOLDS" in out
    assert "MODULE main" in out  # the NuSMV export
