"""The repository benchmark: workloads, checks and per-layer tracing.

Entry point: ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root.
"""
