"""The repo's benchmark: seven named workloads measured from outside.

Run from the repository root::

    python -m bench                      # all workloads, untraced
    python -m bench --traced             # per-layer attribution run
    python -m bench compare A.json B.json

``bench`` drives ``repro`` only through its public functions and at its
shipped defaults; see ``bench/README.md`` for what each number means.
"""
