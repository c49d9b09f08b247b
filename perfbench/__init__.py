"""The repository benchmark: one harness, three workloads, traced per layer.

Run ``python3 perfbench/run.py --workload {read,read_write,tune} --seed N
--seconds S --trace {0,1}`` from the repository root; ``README.md`` next
to this file describes the workloads and every metric.
"""
