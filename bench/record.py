"""Record bench/reference.json: exit code and stdout sha256 of every command.

Run from the repository root, at the commit whose behaviour is the reference:

    python3 bench/record.py

Every command any seed can produce is run once per workload in a fresh
interpreter under each of PYTHONHASHSEED 1 and 2; recording stops with an
error if the two runs disagree on any command.
"""

import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402


def main():
    reference = {}
    with workloads.work_dir(run.ROOT, "record") as workdir:
        for workload in run.WORKLOADS:
            built = workloads.build(workloads.all_templates(workload), workdir)
            commands = [argv for _, argv in built]
            seen = [
                run.launch(commands, False, hash_seed, timeout=1800)[2]["results"]
                for hash_seed in run.HASH_SEEDS
            ]
            for (key, _), first, second in zip(built, *seen):
                if first != second:
                    sys.exit(f"{key}: output depends on the hash seed: {first} != {second}")
            reference[workload] = {key: result for (key, _), result in zip(built, seen[0])}
            print(f"{workload}: {len(built)} commands agree under PYTHONHASHSEED "
                  f"{' and '.join(run.HASH_SEEDS)}")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
