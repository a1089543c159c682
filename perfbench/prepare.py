"""Write one workload's inputs from its seed, as the benchmark's set-up does.

    python3 perfbench/prepare.py --workload detect-long --seed 1 --dir inputs/

run.py starts this script several times per run and takes the median
wall time, from process start to exit, as `setup_s`: interpreter start,
importing fleetsec from this checkout's sources, and generating and
writing the inputs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def import_cli():
    """`fleetsec.cli` from this checkout's src/, never an installed copy."""
    package = ROOT / "src" / "fleetsec"
    if not (package / "__init__.py").is_file():
        raise FileNotFoundError(f"no fleetsec sources at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    import fleetsec.cli

    if Path(fleetsec.cli.__file__).resolve().parent != package.resolve():
        raise ImportError(f"fleetsec imported from {fleetsec.cli.__file__}, not {package}")
    return fleetsec.cli


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True, type=Path)
    args = parser.parse_args(argv)
    try:
        import_cli()
    except (FileNotFoundError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workloads.write_inputs(workloads.make_plan(args.workload, args.seed), args.dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
