"""``python -m dirmean.cli`` with the host-speed task sampled inside it.

    python3 perfbench/cli_child.py SAMPLES_PATH ARG...

Runs the ``dirmean.cli`` module as ``__main__`` with the arguments
``ARG...``, runs the task of ``hostspeed`` every ``hostspeed.PERIOD_S`` of
CPU time, and writes the seconds of each run of it to ``SAMPLES_PATH`` as a
JSON list.  Exits with the CLI's exit code.
"""

import json
import runpy
import sys

import hostspeed


def main() -> int:
    path, args = sys.argv[1], sys.argv[2:]
    speed = hostspeed.HostSpeed()
    sys.argv = [sys.argv[0], *args]
    code = 0
    with speed.sampling():
        try:
            runpy.run_module("dirmean.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([seconds for _, seconds in speed.samples], fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
