"""``aggregate_layer_run`` against the per-tile loop it replaced.

The layer epilogue takes one ``(streams, tiles, 8)`` counter matrix and
reduces it with array operations.  Its results must be the ones the old
per-``(tile, CAMStats, stream)`` loop gave, kept here as the oracle: the
same layer counters, energy and per-(bank, tile) ledger, and the same
latency to the last bit - the per-(stream, round) maxima summed in the
loop's insertion order.
"""

from types import SimpleNamespace
from typing import Dict

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.arch.accelerator import Accelerator
from repro.arch.interconnect import ZERO_TRANSFER
from repro.cam.stats import CAMStats
from repro.perf.breakdown import EnergyBreakdown, LatencyBreakdown
from repro.runtime.scheduler import aggregate_layer_run, counter_rows


def per_tile_loop(layer, tile_stats, accelerator, movement, repeats=1):
    """The per-triple aggregation loop, as it was before counter matrices."""
    technology = accelerator.config.technology
    stats = CAMStats()
    round_latency: Dict[tuple, float] = {}
    executed = 0
    for tile, tile_counters, stream in tile_stats:
        executed += 1
        stats = stats.merge(tile_counters)
        accelerator.record_tile_stats(tile.address, tile_counters)
        key = (stream, tile.round_index)
        tile_latency = tile_counters.latency_ns(technology)
        round_latency[key] = max(round_latency.get(key, 0.0), tile_latency)
    dfg_ns = sum(round_latency.values())
    peripherals_fj = (
        layer.num_instructions
        * repeats
        * accelerator.config.instruction_cache_energy_fj
    )
    energy = EnergyBreakdown(
        dfg_fj=stats.energy_fj(technology),
        peripherals_fj=peripherals_fj,
        movement_fj=movement.energy_fj,
    )
    latency = LatencyBreakdown(dfg_ns=dfg_ns, movement_ns=movement.latency_ns)
    return stats, energy, latency, executed


@st.composite
def layers(draw):
    """A layer of 1-6 tiles on a few shared addresses and rounds, with
    random counters for 1-4 streams."""
    tiles = draw(st.integers(min_value=1, max_value=6))
    streams = draw(st.integers(min_value=1, max_value=4))
    addresses = [(0, 0, 0), (0, 0, 1), (1, 2, 3)]
    layer_tiles = [
        SimpleNamespace(
            address=draw(st.sampled_from(addresses)),
            round_index=draw(st.integers(min_value=0, max_value=2)),
            num_arithmetic_ops=draw(st.integers(min_value=0, max_value=100)),
        )
        for _ in range(tiles)
    ]
    layer = SimpleNamespace(
        name="layer",
        layer_index=3,
        tiles=layer_tiles,
        num_instructions=draw(st.integers(min_value=0, max_value=1000)),
        aps_used=2,
        num_rounds=3,
        scale_factor=1.0,
    )
    # Large enough that some counters round when converted to float.
    counters = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**55),
            min_size=streams * tiles * 8,
            max_size=streams * tiles * 8,
        )
    )
    return layer, np.array(counters, dtype=np.int64).reshape(streams, tiles, 8)


class TestAggregateLayerRun:
    @settings(max_examples=60, deadline=None)
    @given(layers(), st.integers(min_value=1, max_value=5))
    def test_matches_per_tile_loop(self, drawn, repeats):
        layer, counters = drawn
        streams, tiles = counters.shape[:2]
        triples = [
            (layer.tiles[tile], CAMStats(*counters[stream, tile].tolist()), stream)
            for stream in range(streams)
            for tile in range(tiles)
        ]
        oracle = Accelerator()
        stats, energy, latency, executed = per_tile_loop(
            layer, triples, oracle, ZERO_TRANSFER, repeats
        )
        accelerator = Accelerator()
        result = aggregate_layer_run(
            layer, counters, accelerator, ZERO_TRANSFER, repeats=repeats
        )
        assert result.stats == stats
        assert result.energy == energy
        assert float(result.latency.dfg_ns).hex() == float(latency.dfg_ns).hex()
        assert result.latency == latency
        assert result.tiles_executed == executed
        assert accelerator.tile_stats() == oracle.tile_stats()
        assert result.total_ops == repeats * sum(
            tile.num_arithmetic_ops for tile in layer.tiles
        )

    def test_counter_rows_follow_field_order(self):
        stats = CAMStats(*range(1, 9))
        assert counter_rows([stats, CAMStats()]).tolist() == [
            list(range(1, 9)),
            [0] * 8,
        ]
        assert counter_rows([]).shape == (0, 8)
