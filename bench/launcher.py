"""Run one `hopfforge` command with the benchmark's tracing installed.

    python3 bench/launcher.py OUT.json T0 ARGV...

T0 is the caller's `time.perf_counter()` just before it started this
process; `cli.startup_s` is the time from T0 to the call of
`hopfforge.cli.main(ARGV)`: interpreter start-up, import and installing the
wrappers.  The raw counters are written to OUT.json when the command ends.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hopfforge.cli  # noqa: E402

from layertrace import Tracer  # noqa: E402


def main() -> int:
    out, t0, *argv = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    tracer.raw["cli.startup_s"] = time.perf_counter() - float(t0)
    rc = hopfforge.cli.main(argv)
    Path(out).write_text(json.dumps(tracer.snapshot()))
    return rc


if __name__ == "__main__":
    sys.exit(main())
