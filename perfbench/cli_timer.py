"""Run one CLI call in this fresh interpreter and time its two halves.

    python3 perfbench/cli_timer.py <markov-fuzzy arguments...>

prints {"import_ms", "main_ms", "exit", "stdout_bytes"} as JSON: the time
to import markov_fuzzy.cli, and the time of cli.main(argv) with its
standard output captured.
"""

import contextlib
import io
import json
import sys
import time

start = time.perf_counter()
from markov_fuzzy import cli  # noqa: E402

imported = time.perf_counter()
captured = io.StringIO()
with contextlib.redirect_stdout(captured):
    code = cli.main(sys.argv[1:])
finished = time.perf_counter()
print(
    json.dumps(
        {
            "import_ms": (imported - start) * 1e3,
            "main_ms": (finished - imported) * 1e3,
            "exit": code,
            "stdout_bytes": len(captured.getvalue().encode()),
        }
    )
)
