"""Fingerprint the rows every perfbench workload stores.

Run from anywhere::

    python3 tools/store_rows.py ROOT --seed N

``ROOT`` is a checkout of this repository, for example the base branch
of a pull request.  The library is imported from ``ROOT/src`` and the
workloads from ``ROOT/perfbench``.  Each workload's campaign runs once,
untimed, with its store in a temporary directory.  One line per
workload follows: its name, the number of rows ``run_rows`` returns
from the finished store, and a SHA-256 of those rows without
``wall_s``, the one field that differs between identical runs.  Two
checkouts that print the same line for a workload stored the same
rows.  Nothing is written under ``ROOT``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile


def rows_digest(rows):
    """SHA-256 of ``rows`` in order, every field but ``wall_s``."""
    digest = hashlib.sha256()
    for row in rows:
        fields = {key: value for key, value in row.items() if key != "wall_s"}
        digest.update(json.dumps(fields, sort_keys=True).encode() + b"\n")
    return digest.hexdigest()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("root", help="checkout whose src/ and perfbench/ run")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    sys.dont_write_bytecode = True  # leave ROOT as it is
    sys.path[:0] = [src, os.path.join(root, "perfbench")]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"store_rows: imported {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from repro.store import CampaignStore
    from workloads import WORKLOADS

    for name, workload in WORKLOADS.items():
        inputs = workload.make(args.seed)
        with tempfile.TemporaryDirectory() as workdir:
            outcome = workload.execute(inputs, workdir)
            with CampaignStore(outcome.store_path) as store:
                rows = store.run_rows(store.campaign_id(inputs.spec.name))
        print(f"{name} rows={len(rows)} sha256={rows_digest(rows)}",
              flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
