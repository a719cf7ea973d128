"""The repository benchmark: closed-loop workloads timed from outside the program.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
runs one workload; ``perfbench/README.md`` describes the workloads, the
metrics and the per-layer predictions.
"""
