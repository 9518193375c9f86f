"""Record the SHA-256 of the generated inputs and the scalar oracle
output of every workload for a range of seeds in ``digests.json``.

    python3 perfbench/record_digests.py FIRST LAST

Run from the repository root.  ``run.py`` compares each run's inputs
and oracle with these digests, so a change to the program's output (or
to the genome or read generators) fails the benchmark until the digests
are recorded again with this script, in plain view in the diff.
"""

from __future__ import annotations

import json
import shutil
import sys

import benchlib as lib
import run


def record(seeds: "range") -> "dict[str, str]":
    digests = lib.load_digests()
    for workload in lib.WORKLOADS.values():
        for seed in seeds:
            inputs = run.Inputs(workload, seed, lib.WORK)
            inputs.prepare()
            run_dir = lib.WORK / "runs" / f"digest-{workload.name}-{seed}"
            run.ensure_oracle(inputs, run.Runner(inputs, run_dir))
            shutil.rmtree(run_dir, ignore_errors=True)
            for key, path in inputs.digested().items():
                digests[key] = lib.file_sha256(path)
            print(f"{workload.name} seed {seed}", flush=True)
    return digests


def main(argv: "list[str]") -> int:
    lib.ensure_program()
    first, last = int(argv[1]), int(argv[2])
    digests = record(range(first, last + 1))
    lib.DIGESTS.write_text(json.dumps(dict(sorted(digests.items())),
                                      indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
