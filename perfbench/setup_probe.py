"""One fresh-process set-up, timed from before ``import umbralops`` until the
workload's seeded request list is built.  Prints ``{"setup_s": seconds}``.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR {full|smoke}

Run from the repository root; ``run.py`` starts it several times per run.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads  # noqa: E402  (imports umbralops)


def main(argv) -> int:
    workload, seed, workdir, size = argv
    workloads.build(workload, int(seed), Path(workdir), workloads.SIZES[size])
    print(json.dumps({"setup_s": time.perf_counter() - START}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
