import os
import subprocess
import sys
from pathlib import Path

import pytest

from s4embed.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def exit_code(*argv: str) -> int:
    """The exit code of one in-process run: returned, or raised by argparse."""
    try:
        return main([*argv, "--quiet"])
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize(
    "argv, code",
    [
        (["lens(3,1)+lens(3,2)"], 0),
        (["lens(5,1)+lens(5,1)"], 1),
        (["pretzel(3,-5,-8)"], 2),
        (["lens(3,1)+lens(3,2)", "--bogus"], 64),
        (["lens(3,1)+lens(3,2)", "--seed", "1"], 64),
        (["lens(3,1)+lens(3,2)", "--budget", "many"], 64),
        (["lens(4,2)"], 64),
        ([], 64),
    ],
)
def test_exit_codes(argv, code, capsys):
    assert exit_code(*argv) == code


def test_help_exits_zero(capsys):
    assert exit_code("--help") == 0
    assert "--seed" not in capsys.readouterr().out


def test_usage_error_exit_code_of_the_process():
    done = subprocess.run(
        [sys.executable, "-m", "s4embed.cli", "lens(3,1)+lens(3,2)", "--bogus"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 64
    assert "unrecognized arguments: --bogus" in done.stderr
