"""Run a ``repro`` command with the layer spans of ``tracing.py`` on.

    python3 perfbench/launch.py --spans FILE serve [repro serve options]

Installs the wrappers, hands over to the ``repro`` command-line entry
point, and writes the recorded spans to FILE when the command returns
(for ``serve``: after the SIGTERM drain).
"""

from __future__ import annotations

import os
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: launch.py --spans FILE COMMAND [ARGS...]",
              file=sys.stderr)
        return 2
    spans_path, command = argv[1], argv[2:]
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, here)
    import tracing
    from repro.cli import main as repro_main

    recorder = tracing.Recorder()
    tracing.install(recorder)
    try:
        return repro_main(command)
    finally:
        recorder.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
