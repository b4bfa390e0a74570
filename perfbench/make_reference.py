#!/usr/bin/env python3
"""Record the reference outputs that ``run.py`` checks requests against.

    python3 perfbench/make_reference.py

Run from the repository root.  At the default seed and full size it stores:
the sha256 of each verify-default request's sorted items (timing fields
stripped) and of all of them merged, after checking that the merge equals
``run_verify("all", seed, order=12)``; the sha256 of each deep-o28 result's
coefficient tuples; and the sha256 of each cli-readme command's exit code,
stdout and escaping exception.  Regenerate it only in a change that means to
alter the program's output, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path.cwd() / "src"))

import workloads as w  # noqa: E402
from umbralops import load_corpus, run_verify  # noqa: E402

WORKDIR = Path.cwd() / ".perfbench" / "reference"


def verify_default(seed):
    corpus = load_corpus(order=w.VERIFY_ORDER)
    requests = w.build_verify_default(corpus, seed, WORKDIR, w.FULL, None)
    digests, items = {}, []
    for req in requests:
        report = req.run()
        if not all(it["status"] == "exact-pass" for it in report["items"]):
            raise SystemExit(f"{req.key}: not every item passes")
        digests[req.key] = w.items_digest(report["items"])
        items += report["items"]
    merged = w.items_digest(items)
    whole = w.items_digest(run_verify("all", seed, order=w.VERIFY_ORDER)["items"])
    if merged != whole:
        raise SystemExit("merged per-request items differ from run_verify('all')")
    return {"all": merged, "items": len(items), "requests": digests}


def deep(seed):
    digests = {}
    for req in w.build_deep(seed, w.FULL, None):
        out = req.run()
        if not (out["agree"] and out["julia_zero"]):
            raise SystemExit(f"{req.key}: constructions disagree or Julia residual nonzero")
        digests[req.key] = w.deep_digest(out)
    return {"requests": digests}


def cli_readme(seed):
    _, cmds = w.cli_commands(seed)
    digests, probes = {}, {}
    for key, argv, probe in cmds:
        out = w.run_cli(argv)
        digests[key] = out.digest()
        if probe:
            probes[key] = {"code": out.code, "error": out.error}
        elif out.code != 0 or out.error is not None:
            raise SystemExit(f"{key}: exit {out.code}, {out.error}")
    return {"requests": digests, "probes": probes}


def main() -> int:
    seed = w.DEFAULT_SEED
    try:
        ref = {
            "seed": seed,
            "verify-default": verify_default(seed),
            "deep-o28": deep(seed),
            "cli-readme": cli_readme(seed),
        }
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
        if WORKDIR.parent.is_dir() and not any(WORKDIR.parent.iterdir()):
            WORKDIR.parent.rmdir()
    w.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
