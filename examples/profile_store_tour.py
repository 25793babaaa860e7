#!/usr/bin/env python
"""A tour of the PStorM profile store and its HBase data model (Ch. 5).

Shows the Table 5.1 row layout (feature-type prefixes on one column
family), the min/max normalization bounds the store maintains, the
matcher's server-side filter stages, and the §5.3 pushdown win measured
in rows shipped.
"""

from repro.core import ProfileStore, extract_job_features
from repro.hadoop import HadoopEngine, ec2_cluster
from repro.observability import MetricsRegistry
from repro.starfish import Sampler, StarfishProfiler
from repro.workloads import (
    inverted_index_job,
    random_text_1gb,
    sort_job,
    teragen_dataset,
    word_count_job,
)


def main() -> None:
    engine = HadoopEngine(ec2_cluster())
    profiler = StarfishProfiler(engine)
    sampler = Sampler(profiler)
    registry = MetricsRegistry()
    store = ProfileStore(registry=registry)

    print("storing three job profiles...")
    for job, data in (
        (word_count_job(), random_text_1gb()),
        (inverted_index_job(), random_text_1gb()),
        (sort_job(), teragen_dataset(1)),
    ):
        profile, __ = profiler.profile_job(job, data)
        sample = sampler.collect(job, data, count=1)
        features = extract_job_features(job, data, sample.profile, engine)
        job_id = store.put(profile, features.static)
        print(f"  {job_id}")

    print("\nrow keys (Table 5.1 layout — feature-type prefixes):")
    for row_key, __ in store.table.scan():
        print(f"  {row_key}")

    wc_id = "word-count@random-text-1gb"
    print(f"\nDynamic/{wc_id} columns:")
    for name, value in sorted(store.get_dynamic(wc_id).items()):
        print(f"  {name:28s} {value}")

    norm = store.normalizer("map", "flow")
    print("\nmap-side data-flow normalization bounds:")
    print(f"  min: {[round(v, 3) for v in norm.minimums]}")
    print(f"  max: {[round(v, 3) for v in norm.maximums]}")

    # One Euclidean stage, pushed down to the region servers.
    probe = store.get_profile(wc_id).map_profile.data_flow_vector()
    scanned_total = registry.counter("hbase_rows_scanned_total")
    shipped_total = registry.counter("hbase_rows_shipped_total")
    scanned_before, shipped_before = scanned_total.value, shipped_total.value
    survivors = store.euclidean_stage("map", "flow", probe, threshold=1.0)
    scanned = int(scanned_total.value - scanned_before)
    shipped = int(shipped_total.value - shipped_before)
    print(f"\nEuclidean stage: scanned {scanned} rows server-side, "
          f"shipped {shipped}, survivors: {survivors}")


if __name__ == "__main__":
    main()
