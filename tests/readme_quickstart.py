"""The README's quick start, taken from ``README.md`` itself: its Python
block, its two JSON blocks (the behavior table and the catalog override) and
its ``orch segment`` command.

As a script, ``python tests/readme_quickstart.py README.md`` runs the Python
block and writes the two JSON files in the current directory, then prints
the ``orch segment`` command for a shell to run there.
"""

from __future__ import annotations

import json
import re
import shlex
import sys
from pathlib import Path


def quick_start(readme_text: str) -> tuple[str, str, str, str]:
    """``(python source, behaviors JSON, catalog JSON, orch command)``."""
    section = readme_text.split("\n## Quick start", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```(\w+)\n(.*?)```", section, flags=re.S)
    python = [body for lang, body in blocks if lang == "python"]
    documents = [body for lang, body in blocks if lang == "json"]
    commands = [body for lang, body in blocks if lang == "bash"]
    assert len(python) == 1 and len(documents) == 2 and len(commands) == 1, [lang for lang, _ in blocks]
    behaviors, catalog = sorted(documents, key=lambda doc: "algorithms" in json.loads(doc))
    command = " ".join(commands[0].replace("\\\n", " ").split())
    assert command.startswith("orch segment "), command
    return python[0], behaviors, catalog, command


def write_quick_start(readme: str | Path) -> str:
    """Run the quick start's Python block and write its JSON files under
    the names its command uses, in the current directory; return the
    command."""
    python, behaviors, catalog, command = quick_start(Path(readme).read_text())
    argv = shlex.split(command)
    Path(argv[argv.index("--mock-behaviors") + 1]).write_text(behaviors)
    Path(argv[argv.index("--catalog") + 1]).write_text(catalog)
    exec(compile(python, f"{readme} (quick start)", "exec"), {"__name__": "quick_start"})
    return command


if __name__ == "__main__":
    print(write_quick_start(sys.argv[1]))
