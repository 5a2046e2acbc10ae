"""Run one `tveff` CLI call and record when its import finished.

    python3 shim.py STAMP_FILE SRC_DIR [tveff arguments ...]

Writes ``time.perf_counter()`` (CLOCK_MONOTONIC, shared by all processes
on the machine) to STAMP_FILE right after ``import tveff.cli``, then
calls the same ``tveff.cli.main`` the ``tveff`` console script calls.
With no tveff arguments it only imports, which is a set-up probe.
"""

import sys
import time


def main() -> int:
    stamp, src, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import tveff.cli

    ready = time.perf_counter()
    with open(stamp, "w", encoding="utf-8") as f:
        f.write(repr(ready))
    return tveff.cli.main(argv) if argv else 0


if __name__ == "__main__":
    sys.exit(main())
