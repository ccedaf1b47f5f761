"""A fresh interpreter that finds `pbrlab` in src, for what a module already
imported by another test would hide: what a process loads, its real exit
code and its streams."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def env(**extra) -> dict:
    """This process's environment, with `extra` added and src first on
    PYTHONPATH."""
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}


def python(*args, input="", **kwargs) -> subprocess.CompletedProcess:
    """`python ARGS` run to its end in a fresh interpreter that reads
    `input`, its streams captured as text; `kwargs` go to subprocess.run."""
    return subprocess.run([sys.executable, *args], env=env(), input=input,
                          capture_output=True, text=True, timeout=60,
                          **kwargs)
