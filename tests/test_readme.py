"""The README's documented library surface runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_use_block_runs_and_passes(capsys):
    text = README.read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md (Library use)", "exec"), {})
    assert capsys.readouterr().out.rstrip().endswith("verdict: PASS")
