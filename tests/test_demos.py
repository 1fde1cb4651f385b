"""Every demo script runs to completion in-process."""

import re
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


def test_readme_quickstart_runs(capsys):
    # the README's one python block, run as written, so a deleted or
    # renamed API cannot leave the Quickstart stale
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.S | re.M)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {"__name__": "__main__"})
    assert "EinsteinResult(is_einstein=True" in capsys.readouterr().out
