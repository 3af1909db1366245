"""Measurements taken in fresh interpreters: import time and the CLI split.

Every child runs the checkout's `src/` through PYTHONPATH (see
`child_env`), is waited for, and has its exit code checked.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: A fresh interpreter that takes longer is killed and the run fails.
TIMEOUT_S = 60

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import markov_fuzzy; "
    "print(time.perf_counter() - t)"
)


def child_env(src: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MARKOV_FUZZY_")}
    env["PYTHONPATH"] = str(src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def _run(argv, env, cwd=None) -> subprocess.CompletedProcess:
    done = subprocess.run(
        argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S, check=False
    )
    if done.returncode != 0:
        raise RuntimeError(f"{argv[1:]} exited {done.returncode}: {done.stderr[-500:]}")
    return done


def import_seconds(env: dict, repeats: int, probe) -> list[float]:
    """Wall time of `import markov_fuzzy` in `repeats` fresh interpreters.

    One untimed import first writes the bytecode cache, as a user's first
    run would.  Each time is scaled by the geometric mean of the speed
    probes (speed.py) either side of it.
    """
    _run([sys.executable, "-c", "import markov_fuzzy"], env)
    times = []
    before = probe.scale() if repeats else 1.0
    for _ in range(repeats):
        seconds = float(_run([sys.executable, "-c", _IMPORT_TIMER], env).stdout)
        after = probe.scale()
        times.append(seconds * math.sqrt(before * after))
        before = after
    return times


def parse_importtime(stderr: str) -> dict:
    """import.* metrics (ms) from one `python -X importtime` report.

    The report lists each module after the modules it imported, indented by
    depth; reading it backwards gives every module's ancestors.  numpy and
    scipy count each top-most entry of their package once; an entry nested
    inside the other package (numpy imported by scipy) counts for both.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((int(self_us), int(cumulative_us), name.strip(), depth))

    def top_most(package):
        total, stack = 0, []
        for self_us, cumulative_us, name, depth in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            inside = any(n == package or n.startswith(package + ".") for _, n in stack)
            if (name == package or name.startswith(package + ".")) and not inside:
                total += cumulative_us
            stack.append((depth, name))
        return total / 1e3

    own = [e for e in entries if e[2] == "markov_fuzzy" or e[2].startswith("markov_fuzzy.")]
    return {
        "import.total_ms": max(e[1] for e in own if e[2] == "markov_fuzzy") / 1e3,
        "import.scipy_ms": top_most("scipy"),
        "import.numpy_ms": top_most("numpy"),
        "import.markov_fuzzy_self_ms": sum(e[0] for e in own) / 1e3,
    }


def import_breakdown(env: dict, repeats: int) -> dict:
    """Median of each import.* metric over `repeats` fresh interpreters."""
    runs = [
        parse_importtime(
            _run([sys.executable, "-X", "importtime", "-c", "import markov_fuzzy"], env).stderr
        )
        for _ in range(repeats)
    ]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def cli_split(env: dict, cwd: Path, argv: list) -> dict:
    """import_ms, main_ms, exit code and stdout bytes of one in-process CLI call."""
    done = _run([sys.executable, str(HERE / "cli_timer.py"), *argv], env, cwd)
    return json.loads(done.stdout.splitlines()[-1])
