"""Each emitted pair is sized once, at emit, and every later total reads
that size: the sizes column, the per-key aggregate and the reduce
measurement's input bytes must all equal :func:`pair_size` of the pairs
they describe, which stays the oracle here."""

from __future__ import annotations

from enum import IntEnum

from hypothesis import given, settings, strategies as st

from repro.hadoop import HadoopEngine, MapReduceJob, ec2_cluster
from repro.hadoop.context import TaskContext
from repro.hadoop.dataset import Dataset, FunctionRecordSource, SplitSample
from repro.hadoop.mapper_engine import measure_map_sample
from repro.hadoop.records import pair_size

_CLUSTER = ec2_cluster()


class _Level(IntEnum):
    LOW = 1
    HIGH = 2


_hashable_scalars = st.one_of(
    st.text(max_size=8),
    st.integers(-(2**40), 2**40),
    st.floats(allow_nan=False),
    st.booleans(),
    st.sampled_from(list(_Level)),
    st.none(),
    st.binary(max_size=8),
)
_hashable = st.recursive(
    _hashable_scalars, lambda inner: st.tuples(inner, inner), max_leaves=4
)
_any = st.recursive(
    _hashable_scalars,
    lambda inner: st.one_of(
        st.tuples(inner, inner),
        st.dictionaries(_hashable_scalars, inner, max_size=3),
    ),
    max_leaves=6,
)
#: Dict keys are fine wherever pairs are only sized or grouped by repr;
#: a reducer groups by the key itself, so its keys must hash.
_any_pairs = st.lists(st.tuples(_any, _any), max_size=40)
_hashable_pairs = st.lists(st.tuples(_hashable, _any), min_size=1, max_size=40)


def _identity_map(key, value, ctx):
    ctx.emit(key, value)


def _first_value_reduce(key, values, ctx):
    ctx.emit(key, values[0])


def _sizes(pairs):
    return [pair_size(key, value) for key, value in pairs]


@given(_any_pairs)
def test_emit_records_each_pair_size(pairs):
    context = TaskContext()
    for key, value in pairs:
        context.emit(key, value)
    assert context.sizes == _sizes(pairs)
    assert context.bytes_out == sum(_sizes(pairs))
    assert context.records_out == len(context.sizes) == len(pairs)


@given(_any_pairs)
def test_key_aggregate_totals_equal_pair_sizes(pairs):
    job = MapReduceJob(name="identity", mapper=_identity_map)
    sample = SplitSample(0, tuple(pairs), sum(_sizes(pairs)))
    measurement = measure_map_sample(job, sample)
    assert measurement.sample_map_sizes == tuple(_sizes(pairs))

    # Oracle: group by repr(key) in first-seen order, sizing every pair.
    totals: dict[str, list[int]] = {}
    for key, value in pairs:
        entry = totals.setdefault(repr(key), [0, 0])
        entry[0] += pair_size(key, value)
        entry[1] += 1
    aggregate = measurement.key_aggregate(combined=False)
    assert [repr(key) for key in aggregate.keys] == list(totals)
    assert aggregate.byte_totals.tolist() == [float(b) for b, __ in totals.values()]
    assert aggregate.record_counts.tolist() == [float(n) for __, n in totals.values()]


@settings(max_examples=40, deadline=None)
@given(_hashable_pairs, st.booleans())
def test_reduce_input_bytes_equal_pair_sizes(pairs, combined):
    """Through the engine: cached records, map sizes (raw or combined)
    concatenated over the representative splits, then the reducer."""
    job = MapReduceJob(
        name="first-value",
        mapper=_identity_map,
        reducer=_first_value_reduce,
        combiner=_first_value_reduce,
    )
    dataset = Dataset(
        "replay", nominal_bytes=256 << 20,
        source=FunctionRecordSource(lambda split_index, rng: list(pairs)),
    )
    engine = HadoopEngine(_CLUSTER)
    streams = [
        measurement.intermediate_pairs(combined)
        for measurement in engine.map_measurements(job, dataset)
    ]
    reduce_measurement = engine.reduce_measurement(job, dataset, combined)
    assert reduce_measurement.sample_input_records == sum(map(len, streams))
    assert reduce_measurement.sample_input_bytes == sum(
        sum(_sizes(stream)) for stream in streams
    )
