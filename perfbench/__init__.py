"""KG-construction benchmark: three workloads against the package's public
API, end-to-end metrics with tracing off, and a separate traced run that
times each layer's public functions from outside the package.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
