"""``python -m grassnorm`` with the layers traced, for the traced CLI rounds.

Same arguments, standard output and exit status as the real command.  It
times ``import grassnorm.cli`` in this fresh interpreter, wraps the layers,
runs the command, and writes the import time, the in-process ``cli.run``
time and the span edges as JSON to the file named by PERFBENCH_TRACE_OUT.
"""

import json
import os
import sys
import time

from spec import LAYERS
from tracer import Tracer


def main() -> int:
    t0 = time.perf_counter()
    import grassnorm.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer(LAYERS)
    tracer.install()
    sys.argv[0] = "grassnorm"
    try:
        status = grassnorm.cli.run()
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        dumped = tracer.dump()
        dumped["import_s"] = import_s
        dumped["run_s"] = tracer.total_s("cli.run")
        with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(dumped, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
