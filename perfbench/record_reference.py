"""Record the sha256 of every pool job's report into reference.json.

    python3 perfbench/record_reference.py

Run it once, on the commit whose reports are the reference.  A job whose
report fails any check other than the digest itself is not recorded, and
the script exits 1.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import checks
import pools
import run


def main() -> int:
    os.environ.pop("UQBENCH_PRESET_PATH", None)
    sys.path.insert(0, str(run.SRC))
    cli = run.import_cli()
    checker = checks.Checker(run.SRC / "uqbench" / "presets", {})
    references, bad, matrices = {}, 0, {}
    for job in pools.full_pool():
        seconds, rc, text = run.run_job(cli, job)
        problems = [p for p in checker.problems(job, rc, text)
                    if p != "no reference digest"]
        print(f"{seconds:7.3f}s rc={rc} {job.key} {'; '.join(problems)}")
        if problems:
            bad += 1
            continue
        references[job.key] = checks.digest(text)
        if job.subcommand == "braid-rep":
            matrices[job.key] = json.loads(text)["result"]["matrix"]
    for key in checks.braid_relation_failures(matrices):
        print(f"braid relation fails: {key}")
        references.pop(key)
        bad += 1
    path = Path(__file__).parent / "reference.json"
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"{len(references)} digests written to {path.name}; {bad} jobs failed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
