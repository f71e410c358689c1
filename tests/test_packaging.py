"""The declared dependency list matches what the code imports."""

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _declared_dependencies():
    with open(os.path.join(ROOT, "pyproject.toml"), encoding="utf-8") as handle:
        text = handle.read()
    # A regex, not tomllib: CI still runs Python 3.9.
    block = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.S | re.M).group(1)
    specs = re.findall(r'"([^"]+)"', block)
    return [re.match(r"[A-Za-z0-9_.-]+", spec).group(0) for spec in specs]


def test_declared_dependencies_are_imported():
    sources = []
    for directory, _, files in os.walk(os.path.join(ROOT, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(directory, name), encoding="utf-8") as handle:
                    sources.append(handle.read())
    code = "\n".join(sources)
    declared = _declared_dependencies()
    assert declared, "pyproject.toml declares no dependencies?"
    unused = [
        name
        for name in declared
        if not re.search(rf"^\s*(?:import|from)\s+{re.escape(name)}\b", code, re.M)
    ]
    assert not unused, f"declared in pyproject.toml but never imported under src/: {unused}"
