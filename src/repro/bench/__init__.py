"""The drift gate over the experiment kernels.

The :mod:`benchmarks` directory reproduces the paper's evaluation as
pytest-collected experiments.  Each ``benchmarks/bench_e*.py`` module
also declares a module-level :data:`WORKLOAD`
(:class:`~repro.bench.workload.BenchWorkload`) — the experiment's
representative kernel, runnable without pytest — and
:mod:`repro.bench.runner` runs them and compares their simulated metrics
exactly against the committed ``benchmarks/baseline.json``.  The
``repro bench`` CLI subcommand and ``tests/test_bench_drift.py`` front
it.  Wall-clock measurement lives in ``perfbench/``.
"""
