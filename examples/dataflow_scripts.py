#!/usr/bin/env python
"""The Pig-Latin-style layer: write scripts, get tuned MR jobs.

Demonstrates §1's observation about query-language workloads: scripts
compile onto shared generic operators, so PStorM matches new scripts
through the *strong static path* (same mappers, same CFGs) instead of
the lenient cost fallback hand-written jobs need.
"""

from repro.core import PStorM
from repro.dataflow import DataflowScript, compile_script
from repro.hadoop import HadoopEngine, ec2_cluster
from repro.workloads import pigmix_dataset

# page_views fields: 0 user, 1 action, 2 timespent, 3 term, 4 revenue, 5 links


def main() -> None:
    engine = HadoopEngine(ec2_cluster())
    pstorm = PStorM(engine)
    pages = pigmix_dataset(1)

    history = [
        DataflowScript("revenue-by-user")
        .filter(1, "==", 2)
        .project(0, 4)
        .group_by(0, aggregations=[("sum", 1)]),
        DataflowScript("time-by-term")
        .project(3, 2)
        .group_by(0, aggregations=[("sum", 1), ("avg", 1)]),
    ]
    print("running the cluster's script history (profiles get stored)...")
    for script in history:
        for job in compile_script(script):
            result = pstorm.submit(job, pages)
            print(f"  {job.name:<28} {result.runtime_seconds/60:5.1f} min")

    new_script = (
        DataflowScript("link-popularity")
        .project(0, 5, flatten=1)
        .group_by(1, aggregations=[("count", 0)])
    )
    jobs = compile_script(new_script)
    print(f"\nsubmitting a brand-new script: {new_script.name} "
          f"({len(new_script.operators)} operators, {len(jobs)} MR job)")
    for job in jobs:
        result = pstorm.submit(job, pages)
        path = result.outcome.map_match.stage if result.matched else "miss"
        print(f"  {job.name:<28} {result.runtime_seconds/60:5.1f} min  [{path}]")
    print(
        "\nA matched job went through the static filters: generated jobs "
        "share the generic operators' class names and CFGs — the §1 "
        "argument for why query-language workloads suit PStorM so well."
    )


if __name__ == "__main__":
    main()
