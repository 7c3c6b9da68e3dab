"""Benchmark harness for gpdcorr: workloads, result digests and tracing.

The harness imports gpdcorr from the ``src`` directory of the checkout
it lives in and nothing else, builds its own copies of the paper corpus
(it never imports ``tests/``), and checks every answer against digests
pinned in ``bench/expected.json``.
"""
