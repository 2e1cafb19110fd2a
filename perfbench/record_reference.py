"""Write perfbench/reference.json: the sha256 of every workload's sorted-key
JSON output at seed 0, at the benchmark size and at the smallest size.

    python3 perfbench/record_reference.py

The reference pins the library's outputs: a change that is meant to keep
them byte-identical must not regenerate it.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def write(reference):
    with open(workloads.REFERENCE_FILE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    reference = {}
    write(reference)  # the runs below must not check the old digests
    for name, wl in workloads.WORKLOADS.items():
        for n in (wl.small_size, wl.size):
            result, record = run.run(name, 0, 0, 0, n=n)
            if not result["correct"]:
                sys.exit("%s at n = %d failed: %s"
                         % (name, n, record["failures"]))
            reference.setdefault(name, {})[str(n)] = record["output_sha256"]
            print(name, n, record["output_sha256"], flush=True)
    write(reference)


if __name__ == "__main__":
    main()
