"""The README's library section stays in step with the package's API."""

import re
from pathlib import Path

import hexmob

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_import_block_runs():
    namespace: dict = {}
    exec(compile(_library_block(), str(README), "exec"), namespace)
    assert namespace["detect_home_work"] is hexmob.detect_home_work


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from hexmob import *", namespace)  # AttributeError on a stale name
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(hexmob.__all__)
