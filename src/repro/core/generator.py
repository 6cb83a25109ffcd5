"""Template-based synthetic trace generation — the paper's future work.

The conclusions propose to "implement a synthetic packet trace generator
based on the described methodology": once a trace is compressed, its four
datasets *are* a traffic model — template shapes with empirical
frequencies, a flow arrival process, an RTT distribution, and a
destination popularity profile.  This module fits that model from a
:class:`~repro.core.datasets.CompressedTrace` and synthesizes traces of
any requested length that follow the same statistics, reusing the
decompressor as the packet-level renderer.

Typical use::

    compressed = compress_trace(real_trace)
    model = TraceModel.fit(compressed)
    bigger = model.synthesize(flow_count=10 * compressed.flow_count())
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field

from repro.core.datasets import (
    CompressedTrace,
    LongFlowTemplate,
    ShortFlowTemplate,
)
from repro.core.decompressor import DecompressorConfig, decompress_trace
from repro.trace.trace import Trace


@dataclass(frozen=True)
class _WeightedChoice:
    """Cumulative-weight sampler over indices 0..n-1."""

    cumulative: tuple[float, ...]

    @classmethod
    def from_counts(cls, counts: list[int]) -> "_WeightedChoice":
        total = float(sum(counts))
        if total <= 0:
            raise ValueError("cannot sample from all-zero counts")
        running = 0.0
        cumulative = []
        for count in counts:
            running += count / total
            cumulative.append(running)
        cumulative[-1] = 1.0
        return cls(tuple(cumulative))

    def sample(self, rng: random.Random) -> int:
        return bisect.bisect_left(self.cumulative, rng.random())


@dataclass
class TraceModel:
    """A generative traffic model fitted from compressed datasets.

    Attributes
    ----------
    short_templates / long_templates:
        The template shapes, carried over verbatim.
    short_usage / long_usage:
        How many flows of the source trace used each template.
    addresses:
        Destination addresses with their per-flow usage counts.
    arrival_rate:
        Fitted flow arrival rate (flows/second, Poisson process).
    rtt_samples:
        The empirical short-flow RTT sample (resampled on synthesis).
    long_fraction:
        Fraction of flows that were long.
    """

    short_templates: list[ShortFlowTemplate]
    long_templates: list[LongFlowTemplate]
    short_usage: list[int]
    long_usage: list[int]
    addresses: list[int]
    address_usage: list[int]
    arrival_rate: float
    rtt_samples: list[float]
    long_fraction: float
    _short_choice: _WeightedChoice = field(repr=False, default=None)  # type: ignore[assignment]
    _long_choice: _WeightedChoice | None = field(repr=False, default=None)
    _address_choice: _WeightedChoice = field(repr=False, default=None)  # type: ignore[assignment]

    @classmethod
    def fit(cls, compressed: CompressedTrace) -> "TraceModel":
        """Fit the model from one compressed trace."""
        if not compressed.time_seq:
            raise ValueError("cannot fit a model from an empty trace")
        compressed.validate()

        short_usage = [0] * len(compressed.short_templates)
        long_usage = [0] * len(compressed.long_templates)
        address_usage = [0] * len(compressed.addresses)
        rtt_samples: list[float] = []
        columns = compressed.time_seq
        for is_long, template_index, address_index, rtt in zip(
            columns.long, columns.template_index, columns.address_index, columns.rtts
        ):
            if is_long:
                long_usage[template_index] += 1
            else:
                short_usage[template_index] += 1
                if rtt > 0:
                    rtt_samples.append(rtt)
            address_usage[address_index] += 1
        long_count = sum(long_usage)

        flows = len(columns)
        span = max(columns.timestamps) - min(columns.timestamps)
        arrival_rate = flows / span if span > 0 else float(flows)

        model = cls(
            short_templates=list(compressed.short_templates),
            long_templates=list(compressed.long_templates),
            short_usage=short_usage,
            long_usage=long_usage,
            addresses=list(compressed.addresses),
            address_usage=address_usage,
            arrival_rate=arrival_rate,
            rtt_samples=rtt_samples or [0.05],
            long_fraction=long_count / flows,
        )
        model._short_choice = (
            _WeightedChoice.from_counts(short_usage) if sum(short_usage) else None
        )
        model._long_choice = (
            _WeightedChoice.from_counts(long_usage) if sum(long_usage) else None
        )
        model._address_choice = _WeightedChoice.from_counts(
            [max(1, count) for count in address_usage]
        )
        return model

    # -- synthesis -----------------------------------------------------------

    def synthesize_datasets(
        self, flow_count: int, seed: int = 1
    ) -> CompressedTrace:
        """Sample ``flow_count`` new time-seq records against the model."""
        if flow_count < 0:
            raise ValueError(f"flow_count cannot be negative: {flow_count}")
        rng = random.Random(seed)
        synthetic = CompressedTrace(
            short_templates=self.short_templates,
            long_templates=self.long_templates,
            name=f"synthetic-{seed}",
        )
        for address in self.addresses:
            synthetic.addresses.intern(address)

        columns = synthetic.time_seq
        timestamp = 0.0
        for _ in range(flow_count):
            timestamp += rng.expovariate(self.arrival_rate)
            make_long = (
                self._long_choice is not None
                and (
                    self._short_choice is None
                    or rng.random() < self.long_fraction
                )
            )
            if make_long:
                template_index = self._long_choice.sample(rng)
                rtt = 0.0
            else:
                template_index = self._short_choice.sample(rng)
                rtt = rng.choice(self.rtt_samples)
            columns.timestamps.append(timestamp)
            columns.long.append(make_long)
            columns.template_index.append(template_index)
            columns.address_index.append(self._address_choice.sample(rng))
            columns.rtts.append(rtt)
        synthetic.original_packet_count = synthetic.packet_count()
        return synthetic

    def synthesize(
        self,
        flow_count: int,
        seed: int = 1,
        config: DecompressorConfig | None = None,
    ) -> Trace:
        """Synthesize a packet trace of ``flow_count`` flows."""
        datasets = self.synthesize_datasets(flow_count, seed)
        return decompress_trace(datasets, config)

    # -- introspection --------------------------------------------------------

    def template_count(self) -> int:
        """Total templates carried by the model."""
        return len(self.short_templates) + len(self.long_templates)

    def expected_packets_per_flow(self) -> float:
        """Mean packets/flow the model will produce."""
        short_total = sum(self.short_usage)
        long_total = sum(self.long_usage)
        weighted = sum(
            template.n * usage
            for template, usage in zip(self.short_templates, self.short_usage)
        ) + sum(
            template.n * usage
            for template, usage in zip(self.long_templates, self.long_usage)
        )
        total = short_total + long_total
        return weighted / total if total else 0.0
