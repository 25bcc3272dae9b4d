"""Write the pinned output digests in ``expected/``.

    python3 perfbench/pin.py --seeds 0-19

Runs every operation of each workload's batch once per seed, refuses to pin
an output that fails its check, and stores one digest per chunk of
operations (``checks.ChunkDigests``). Run it only when a change is meant to
alter the inputs or the canonical outputs.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import HERE, RUN_DIR, WORKLOADS, import_package


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-19", help="first-last, inclusive")
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    import_package()
    import inputs
    import ops
    from checks import ChunkDigests
    from spans import Tracer

    tracer = Tracer()
    for workload in args.workload or WORKLOADS:
        pins = {}
        for seed in range(first, last + 1):
            workdir = RUN_DIR / f"pin-{workload}-{seed}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                batch = inputs.build_batch(workload, seed, workdir)
                chunks = ChunkDigests(len(batch))
                digests = []
                for index, op in enumerate(batch):
                    problems, _, payload = ops.check(op, ops.execute(op, tracer))
                    if problems:
                        print(f"{workload} seed {seed} operation {index}: {problems}", file=sys.stderr)
                        return 1
                    digests.append(chunks.feed(index, payload))
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            pins[str(seed)] = "".join(d for d in digests if d)
            print(f"{workload} seed {seed}: {len(batch)} operations pinned", flush=True)
        path = HERE / "expected" / f"{workload}.json"
        if path.exists():
            pins = {**json.loads(path.read_text(encoding="utf-8")), **pins}
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
