"""Every demo script runs to completion in-process."""

import runpy
import tempfile
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path, monkeypatch, capsys):
    # the CLI walkthrough writes its input files into a fresh temp directory
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out.strip()
    assert not any(tmp_path.iterdir()), "the demo left files in the temp directory"
