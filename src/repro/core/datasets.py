"""The four compressed datasets of section 3.

``short-flows-template``
    "stores the templates of flows with less than 51 packets.  This
    dataset has a first field that stores the value of n (number of
    packets), and then a sequence of f(p_i) values."

``long-flows-template``
    "stores the templates of flows with more than 50 packets.  The first
    field stores the value n and then, for n packets, the f(p_i) value and
    the inter packet time."

``address``
    "stores a sequence of unique IP destination address found in the
    trace."

``time-seq``
    "stores for each flow, the time-stamp of the first packet ... a
    dataset identifier (S/L), an index to a specific template position
    into the template dataset, the RTT of short flows and another index to
    the address dataset."
"""

from __future__ import annotations

import enum
from collections.abc import MutableSequence, Sequence
from dataclasses import dataclass, field
from itertools import compress
from operator import eq, not_, sub
from typing import Iterable


class DatasetId(enum.Enum):
    """The time-seq dataset identifier field: short or long template."""

    SHORT = "S"
    LONG = "L"


DATASETS = (DatasetId.SHORT, DatasetId.LONG)  # by a time-seq row's long flag


def _check_values(values) -> None:
    """Reject a value outside 0..255 (``bytes`` checks ints at C speed)."""
    try:
        bytes(values)
    except (TypeError, ValueError):
        # Not all ints in range: decide with the plain rule, which also
        # accepts in-range non-int numbers.
        if any(v < 0 or v > 255 for v in values):
            raise ValueError("f(p) values must fit one byte (0..255)") from None


@dataclass(frozen=True, slots=True)
class ShortFlowTemplate:
    """A short-flow cluster center: ``n`` and the ``V_f`` vector."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a template needs at least one packet value")
        _check_values(self.values)

    @property
    def n(self) -> int:
        """Number of packets this template describes."""
        return len(self.values)


@dataclass(frozen=True, slots=True)
class LongFlowTemplate:
    """A long-flow record: per packet, ``f(p_i)`` and inter-packet time.

    ``gaps[i]`` is the time between packet ``i`` and packet ``i+1``;
    the last entry is unused and kept at 0 for a regular layout
    (paper stores "the f(p_i) value and the inter packet time" per
    packet).
    """

    values: tuple[int, ...]
    gaps: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise ValueError("a template needs at least one packet value")
        if len(self.values) != len(self.gaps):
            raise ValueError(
                f"values/gaps length mismatch: {len(self.values)} vs {len(self.gaps)}"
            )
        _check_values(self.values)
        smallest = min(self.gaps)
        if smallest < 0 or (
            smallest != smallest and any(g < 0 for g in self.gaps)
        ):
            # ``min`` keeps a leading NaN and compares nothing below it,
            # so only then can a negative gap hide behind it.
            raise ValueError("inter-packet gaps cannot be negative")

    @property
    def n(self) -> int:
        """Number of packets this template describes."""
        return len(self.values)


def inter_packet_gaps(timestamps: list[float]) -> list[float]:
    """A long flow's gaps: ``t[i+1] - t[i]`` per packet, then a trailing 0.

    A packet stamped earlier than its flow's previous packet — two
    capture streams merged into one ingest source can interleave that
    way — gets a 0 gap: a template cannot store a negative one, and
    rejecting the flow would drop every packet in it.
    """
    gaps = list(map(sub, timestamps[1:], timestamps))
    if gaps and min(gaps) < 0.0:
        gaps = [max(0.0, gap) for gap in gaps]
    gaps.append(0.0)
    return gaps


class AddressTable:
    """The ``address`` dataset: unique destination IPs, index-addressable."""

    def __init__(self, addresses: Iterable[int] = ()) -> None:
        self._addresses: list[int] = []
        self._index: dict[int, int] = {}
        for address in addresses:
            self.intern(address)

    def __len__(self) -> int:
        return len(self._addresses)

    def __iter__(self):
        return iter(self._addresses)

    def intern(self, address: int) -> int:
        """Return the index of ``address``, inserting it if new."""
        if not 0 <= address <= 0xFFFFFFFF:
            raise ValueError(f"not a 32-bit address: {address}")
        existing = self._index.get(address)
        if existing is not None:
            return existing
        index = len(self._addresses)
        self._addresses.append(address)
        self._index[address] = index
        return index

    def lookup(self, index: int) -> int:
        """The address stored at ``index``."""
        return self._addresses[index]

    def addresses(self) -> list[int]:
        """A copy of the address list, in insertion order."""
        return list(self._addresses)


@dataclass(frozen=True, slots=True)
class TimeSeqRecord:
    """One ``time-seq`` entry: the per-flow replay record.

    ``rtt`` is meaningful only for short flows ("for long flows, the field
    RTT in the time-seq dataset is not filled"); it is stored as 0.0 for
    long flows.
    """

    timestamp: float
    dataset: DatasetId
    template_index: int
    address_index: int
    rtt: float = 0.0

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp: {self.timestamp}")
        if self.template_index < 0:
            raise ValueError(f"negative template index: {self.template_index}")
        if self.address_index < 0:
            raise ValueError(f"negative address index: {self.address_index}")
        if self.rtt < 0:
            raise ValueError(f"negative RTT: {self.rtt}")


class TimeSeqColumns(MutableSequence):
    """The ``time-seq`` dataset as five aligned field lists, which the
    program reads and writes directly.

    As a :class:`~collections.abc.MutableSequence` of :class:`TimeSeqRecord`,
    reading builds records on demand, writing splits records into the
    lists, and it compares equal to any sequence of equal records.
    """

    __slots__ = ("timestamps", "long", "template_index", "address_index", "rtts")

    def __init__(self, records: Iterable[TimeSeqRecord] = ()) -> None:
        self.timestamps: list[float] = []
        self.long: list[bool] = []
        self.template_index: list[int] = []
        self.address_index: list[int] = []
        self.rtts: list[float] = []
        self.extend(records)

    def columns(self) -> tuple[list, list, list, list, list]:
        """The five lists, in record field order."""
        return (
            self.timestamps,
            self.long,
            self.template_index,
            self.address_index,
            self.rtts,
        )

    def __len__(self) -> int:
        return len(self.timestamps)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self.__getitem__, range(len(self))[index]))
        return TimeSeqRecord(
            self.timestamps[index],
            DATASETS[self.long[index]],
            self.template_index[index],
            self.address_index[index],
            self.rtts[index],
        )

    def __setitem__(self, index, value) -> None:
        if isinstance(index, slice):
            rows = list(map(_fields, value))
            # An extended slice of the wrong length fails on the first
            # list, before any list changes.
            for column, values in zip(self.columns(), list(zip(*rows)) or [()] * 5):
                column[index] = values
        else:
            for column, field_value in zip(self.columns(), _fields(value)):
                column[index] = field_value

    def __delitem__(self, index) -> None:
        for column in self.columns():
            del column[index]

    def insert(self, index: int, value: TimeSeqRecord) -> None:
        for column, field_value in zip(self.columns(), _fields(value)):
            column.insert(index, field_value)

    def __eq__(self, other) -> bool:
        if isinstance(other, TimeSeqColumns):
            return self.columns() == other.columns()
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def short_refs(self) -> Iterable[int]:
        """The template indices of the short-flow records, in order."""
        return compress(self.template_index, map(not_, self.long))

    def long_refs(self) -> Iterable[int]:
        """The template indices of the long-flow records, in order."""
        return compress(self.template_index, self.long)


def _fields(record: TimeSeqRecord) -> tuple[float, bool, int, int, float]:
    """A record's five column values."""
    if not isinstance(record, TimeSeqRecord):
        raise TypeError(f"time-seq rows are TimeSeqRecord, not {type(record).__name__}")
    return (
        record.timestamp,
        record.dataset is DatasetId.LONG,
        record.template_index,
        record.address_index,
        record.rtt,
    )


@dataclass
class CompressedTrace:
    """All four datasets plus bookkeeping for one compressed trace.

    ``time_seq`` may be given as any iterable of :class:`TimeSeqRecord`.
    """

    short_templates: list[ShortFlowTemplate] = field(default_factory=list)
    long_templates: list[LongFlowTemplate] = field(default_factory=list)
    addresses: AddressTable = field(default_factory=AddressTable)
    time_seq: TimeSeqColumns = field(default_factory=TimeSeqColumns)
    name: str = "compressed"
    original_packet_count: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.time_seq, TimeSeqColumns):
            self.time_seq = TimeSeqColumns(self.time_seq)

    def flow_count(self) -> int:
        """Number of flows recorded (time-seq entries)."""
        return len(self.time_seq)

    def template_counts(self) -> tuple[int, int]:
        """(short template count, long template count)."""
        return len(self.short_templates), len(self.long_templates)

    def template_for(self, record: TimeSeqRecord) -> ShortFlowTemplate | LongFlowTemplate:
        """Resolve a time-seq record to its template."""
        if record.dataset is DatasetId.SHORT:
            return self.short_templates[record.template_index]
        return self.long_templates[record.template_index]

    def flow_packets(self) -> list[int]:
        """Each row's template n: the short-flow rows', then the long-flow rows'."""
        short_sizes = [template.n for template in self.short_templates]
        long_sizes = [template.n for template in self.long_templates]
        return [
            *map(short_sizes.__getitem__, self.time_seq.short_refs()),
            *map(long_sizes.__getitem__, self.time_seq.long_refs()),
        ]

    def packet_count(self) -> int:
        """Packets the decompressed trace will contain."""
        return sum(self.flow_packets())

    def time_bounds(self) -> tuple[float, float] | None:
        """(earliest, latest) time-seq timestamp, or None when empty.

        The archive's segment index stores these bounds so time-range
        queries can skip whole segments without decoding them.
        """
        timestamps = self.time_seq.timestamps
        if not timestamps:
            return None
        return min(timestamps), max(timestamps)

    def select(self, rows: Iterable[int], name: str | None = None) -> "CompressedTrace":
        """A new trace holding only the time-seq ``rows`` (row indices).

        Referenced templates and addresses are copied and re-indexed
        densely; everything unreferenced is dropped.  This is the dataset
        side of archive filtering: a query engine selects matching
        time-seq rows and this builds the self-contained sub-trace.
        ``original_packet_count`` becomes the selected flows' packet total
        (the only packet accounting that survives a flow-level subset).
        """
        subset = CompressedTrace(name=name or self.name)
        source, target = self.time_seq, subset.time_seq
        templates = (self.short_templates, self.long_templates)
        kept = (subset.short_templates, subset.long_templates)
        remaps: tuple[dict[int, int], dict[int, int]] = ({}, {})
        intern, lookup = subset.addresses.intern, self.addresses.lookup
        for row in rows:
            is_long = source.long[row]
            template_index = source.template_index[row]
            template = templates[is_long][template_index]
            remap = remaps[is_long]
            index = remap.get(template_index)
            if index is None:
                index = remap[template_index] = len(kept[is_long])
                kept[is_long].append(template)
            target.timestamps.append(source.timestamps[row])
            target.long.append(is_long)
            target.template_index.append(index)
            target.address_index.append(intern(lookup(source.address_index[row])))
            target.rtts.append(source.rtts[row])
            subset.original_packet_count += template.n
        return subset

    def sorted_time_seq(self) -> list[int]:
        """time-seq row indices sorted by timestamp (the decompressor's order).

        "Note that this dataset is sorted by the time-stamp data field."
        The sort is stable: rows with equal timestamps keep file order.
        """
        timestamps = self.time_seq.timestamps
        return sorted(range(len(timestamps)), key=timestamps.__getitem__)

    def validate(self) -> None:
        """Check every time-seq row's fields and references; raise on
        corruption.

        An in-range dataset is confirmed from four minima and three
        maxima; the row walk runs only to name the first offender, with
        :class:`TimeSeqRecord`'s message for a negative field.
        """
        columns = self.time_seq
        short_count, long_count = self.template_counts()
        address_count = len(self.addresses)
        if (
            min(columns.timestamps, default=0.0) >= 0
            and min(columns.template_index, default=0) >= 0
            and min(columns.address_index, default=0) >= 0
            and min(columns.rtts, default=0.0) >= 0
            and max(columns.short_refs(), default=-1) < short_count
            and max(columns.long_refs(), default=-1) < long_count
            and max(columns.address_index, default=-1) < address_count
        ):
            return
        for position, record in enumerate(columns):
            limit = short_count if record.dataset is DatasetId.SHORT else long_count
            if record.template_index >= limit:
                raise ValueError(
                    f"time-seq[{position}]: template index "
                    f"{record.template_index} out of range for "
                    f"{record.dataset.value} dataset of size {limit}"
                )
            if record.address_index >= address_count:
                raise ValueError(
                    f"time-seq[{position}]: address index "
                    f"{record.address_index} out of range ({address_count})"
                )
