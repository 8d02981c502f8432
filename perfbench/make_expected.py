"""Write the expected report of each workload, without timings.

Run from the repository root, at a commit whose reports are known good:

    python3 perfbench/make_expected.py

Each workload runs once; its JSON report, with every ``ms`` removed, is
written to ``perfbench/expected/<workload>.json``.
"""

import json
import sys
import tempfile

import run


def main():
    out_dir = run.BENCH / "expected"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        for workload in run.WORKLOADS:
            child = run.run_verify(workload, run.child_env(0), workdir)
            if child.returncode != 0 or child.report is None:
                print(f"{workload}: exit {child.returncode}", file=sys.stderr)
                return 1
            for r in child.report["results"]:
                del r["ms"]
            with open(out_dir / f"{workload}.json", "w", encoding="utf-8") as fh:
                json.dump(child.report, fh, indent=1)
                fh.write("\n")
            print(f"{workload}: {len(child.report['results'])} claims")
    return 0


if __name__ == "__main__":
    sys.exit(main())
