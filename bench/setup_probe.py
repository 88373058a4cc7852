"""One fresh interpreter's set-up: import ``pluriclosed.cli``, then build the
workload's models and metrics from the seed.  ``run.py`` starts several of
these and takes the median as ``setup_s``.

    python3 bench/setup_probe.py <workload> <seed> <workdir>

Prints one JSON line: the import time and the ``time.monotonic()`` reading
(a clock shared by all processes) at which set-up finished.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

start = time.monotonic()
import pluriclosed.cli  # noqa: E402,F401

imported = time.monotonic()
import workloads  # noqa: E402

workloads.make(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])).setup()
print(json.dumps({"import_s": imported - start, "ready": time.monotonic()}))
