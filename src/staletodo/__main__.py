"""The console entry point, for ``staletodo`` and ``python -m staletodo``.

numpy's BLAS sizes its thread pool when numpy is first imported, and on
this model's small matrices more than one BLAS thread burns CPU without a
speed gain. So the entry point defaults each BLAS thread variable to 1 and
only then imports the command line, which imports numpy. A value already in
the environment is kept. The library itself sets nothing.
"""

import os

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    for name in BLAS_THREAD_VARIABLES:
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main

    return cli_main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
