"""One set-up of a workload in a fresh interpreter; prints its seconds.

Set-up is `import monogenica` plus loading, building and validating every
job file the workload uses.  Usage: setup_probe.py SRC_DIR JOB_FILE...
"""

import sys
from time import perf_counter


def main(src: str, jobs: list[str]) -> None:
    start = perf_counter()
    sys.path.insert(0, src)
    from monogenica import cli

    for path in jobs:
        job = cli.load_job(path)
        cli.build_spec(job).validate()
        cli.build_pde(job)
    print(perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
