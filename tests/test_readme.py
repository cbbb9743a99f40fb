import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from nlsqueeze.cli import EXIT_INTEGRITY, EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_block_runs():
    # the README's Python examples must keep working under the public names
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue()


def _readme_commands():
    """Every `nlsqueeze` command of the README's shell blocks, as argv lists."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["nlsqueeze"]:
                commands.append(words[1:])
    return commands


def test_readme_shows_every_subcommand():
    assert {argv[0] for argv in _readme_commands()} == {"sweep", "fock", "analyze", "estimate"}


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    # a renamed flag or dest turns into a usage error (exit 1) here
    monkeypatch.chdir(tmp_path)
    assert main(argv) in (EXIT_OK, EXIT_INTEGRITY)
