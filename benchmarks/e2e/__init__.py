"""The end-to-end benchmark: whole simulated sessions, timed from outside.

``python -m benchmarks.e2e`` runs every workload of ``BENCHMARK.json``
(or one, with ``--workload``) in a fresh subprocess and prints each
end-to-end metric by name with its unit; ``--trace`` re-runs the
workloads with timing wrappers around each ``repro`` layer and prints
the per-layer metrics instead.  See ``README.md`` in this directory.
"""
