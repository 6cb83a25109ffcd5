"""The time-seq dataset as columns: the record view, its checks, and the
read paths that never build a record per flow."""

from __future__ import annotations

import math

import pytest

from repro import api
from repro.archive.writer import ArchiveWriter
from repro.core.codec import (
    MAX_TEMPLATE_INDEX,
    _VECTOR_MIN,
    _pack_time_seq,
    deserialize_compressed,
    serialize_compressed,
)
from repro.core.compressor import compress_trace
from repro.core.datasets import (
    CompressedTrace,
    DatasetId,
    ShortFlowTemplate,
    TimeSeqColumns,
    TimeSeqRecord,
)
from repro.core.errors import CodecError
from repro.net.packet import PacketRecord
from repro.synth.scenarios import get_scenario

SHORT, LONG = DatasetId.SHORT, DatasetId.LONG

RECORDS = [
    TimeSeqRecord(0.5, SHORT, 0, 1, 0.05),
    TimeSeqRecord(0.0, LONG, 2, 0),
    TimeSeqRecord(1.5, SHORT, 1, 1, 0.01),
]


class TestRecordView:
    def test_len_bool_iteration_and_indexing(self):
        view = TimeSeqColumns(RECORDS)
        assert len(view) == 3
        assert view and not TimeSeqColumns()
        assert list(view) == RECORDS
        assert view[1] == RECORDS[1]
        assert view[-1] == RECORDS[-1]
        assert view[::2] == [RECORDS[0], RECORDS[2]]
        with pytest.raises(IndexError):
            view[3]

    def test_columns_hold_the_fields(self):
        view = TimeSeqColumns(RECORDS)
        assert view.columns() == (
            [0.5, 0.0, 1.5],
            [False, True, False],
            [0, 2, 1],
            [1, 0, 1],
            [0.05, 0.0, 0.01],
        )
        assert list(view.short_refs()) == [0, 1]
        assert list(view.long_refs()) == [2]

    def test_append_and_extend(self):
        view = TimeSeqColumns()
        view.append(RECORDS[0])
        view.extend(RECORDS[1:])
        assert view == RECORDS
        view.extend(view)  # extending with itself doubles it
        assert view == RECORDS + RECORDS

    def test_item_and_slice_assignment(self):
        view = TimeSeqColumns(RECORDS)
        view[0] = RECORDS[2]
        assert view == [RECORDS[2], RECORDS[1], RECORDS[2]]
        view[1:] = [RECORDS[0]]
        assert view == [RECORDS[2], RECORDS[0]]
        view[:] = []
        assert view == [] and view.columns() == ([], [], [], [], [])
        view[:] = RECORDS
        assert view == RECORDS

    def test_bad_extended_slice_changes_nothing(self):
        view = TimeSeqColumns(RECORDS)
        with pytest.raises(ValueError):
            view[::2] = [RECORDS[1]]
        assert view == RECORDS

    def test_delete_and_insert(self):
        view = TimeSeqColumns(RECORDS)
        del view[0]
        assert view == RECORDS[1:]
        view.insert(0, RECORDS[0])
        assert view == RECORDS
        assert view.pop() == RECORDS[-1]

    def test_only_records_are_written(self):
        view = TimeSeqColumns()
        with pytest.raises(TypeError, match="TimeSeqRecord, not tuple"):
            view.append((0.0, SHORT, 0, 0, 0.0))
        assert not view

    def test_equality(self):
        view = TimeSeqColumns(RECORDS)
        assert view == RECORDS
        assert view == tuple(RECORDS)
        assert view == TimeSeqColumns(RECORDS)
        assert view != RECORDS[:2]
        assert view != TimeSeqColumns(RECORDS[:2])
        assert view != [RECORDS[0], RECORDS[2], RECORDS[1]]
        assert view != "abc"

    def test_trace_constructor_takes_a_record_list(self):
        trace = CompressedTrace(time_seq=list(RECORDS))
        assert isinstance(trace.time_seq, TimeSeqColumns)
        assert trace.time_seq == RECORDS
        assert CompressedTrace(time_seq=iter(RECORDS)).time_seq == RECORDS


def _trace(count: int = 1) -> CompressedTrace:
    trace = CompressedTrace(name="view")
    trace.short_templates.append(ShortFlowTemplate((4, 16)))
    trace.addresses.intern(0x0A000001)
    trace.time_seq.extend(
        TimeSeqRecord(float(row), SHORT, 0, 0, 0.05) for row in range(count)
    )
    return trace


class TestChecksThroughTheView:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"timestamp": -1.0}, "negative timestamp: -1.0"),
            ({"template_index": -1}, "negative template index: -1"),
            ({"address_index": -2}, "negative address index: -2"),
            ({"rtt": -0.5}, "negative RTT: -0.5"),
        ],
    )
    def test_negative_field_written_through_the_view(self, kwargs, message):
        fields = {
            "timestamp": 0.0,
            "dataset": SHORT,
            "template_index": 0,
            "address_index": 0,
            "rtt": 0.0,
        }
        fields.update(kwargs)
        trace = _trace()
        with pytest.raises(ValueError) as raised:
            trace.time_seq.append(TimeSeqRecord(**fields))
        assert str(raised.value) == message
        assert len(trace.time_seq) == 1

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("timestamps", -1.0, "negative timestamp: -1.0"),
            ("template_index", -1, "negative template index: -1"),
            ("address_index", -2, "negative address index: -2"),
            ("rtts", -0.5, "negative RTT: -0.5"),
        ],
    )
    def test_negative_column_value_fails_validation(self, column, value, message):
        trace = _trace(3)
        getattr(trace.time_seq, column)[1] = value
        with pytest.raises(ValueError) as raised:
            trace.validate()
        assert str(raised.value) == message
        with pytest.raises(ValueError) as raised:
            serialize_compressed(trace)
        assert str(raised.value) == message

    def test_out_of_range_indices_name_the_first_row(self):
        trace = _trace(3)
        trace.time_seq[1] = TimeSeqRecord(1.0, SHORT, 5, 0)
        trace.time_seq[2] = TimeSeqRecord(2.0, SHORT, 0, 7)
        with pytest.raises(ValueError) as raised:
            serialize_compressed(trace)
        assert str(raised.value) == (
            "time-seq[1]: template index 5 out of range for S dataset of size 1"
        )
        trace.time_seq[1] = TimeSeqRecord(1.0, SHORT, 0, 0)
        with pytest.raises(ValueError) as raised:
            trace.validate()
        assert str(raised.value) == "time-seq[2]: address index 7 out of range (1)"

    def test_template_index_beyond_the_codec(self):
        trace = _trace()
        trace.short_templates[:] = [ShortFlowTemplate((1,))] * (MAX_TEMPLATE_INDEX + 2)
        trace.time_seq[0] = TimeSeqRecord(0.0, SHORT, MAX_TEMPLATE_INDEX + 1, 0)
        with pytest.raises(CodecError, match="too many short templates for codec: 32769"):
            serialize_compressed(trace)


NON_FINITE = (math.nan, math.inf, -math.inf)


class TestNonFiniteFields:
    """A time-seq field with no integer unit count raises CodecError
    naming its row, on both sides of the vectorized packer's cutoff."""

    @pytest.mark.parametrize("count", [3, _VECTOR_MIN + 8])
    @pytest.mark.parametrize("value", NON_FINITE, ids=repr)
    @pytest.mark.parametrize(
        "column, what", [("timestamps", "timestamp"), ("rtts", "RTT")]
    )
    def test_packer_names_the_row(self, count, value, column, what):
        columns = _trace(count).time_seq
        getattr(columns, column)[2] = value
        getattr(columns, column)[count - 1] = value  # a later offender
        with pytest.raises(CodecError) as raised:
            _pack_time_seq(columns)
        assert str(raised.value) == f"time-seq[2]: cannot quantize {what} {value!r}"

    @pytest.mark.parametrize("count", [3, _VECTOR_MIN + 8])
    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=repr)
    @pytest.mark.parametrize(
        "column, what", [("timestamps", "timestamp"), ("rtts", "RTT")]
    )
    def test_serialize_raises_codec_error(self, count, value, column, what):
        trace = _trace(count)
        getattr(trace.time_seq, column)[2] = value
        with pytest.raises(CodecError) as raised:
            serialize_compressed(trace)
        assert str(raised.value) == f"time-seq[2]: cannot quantize {what} {value!r}"

    @pytest.mark.parametrize(
        "column, message",
        [("timestamps", "negative timestamp: -inf"), ("rtts", "negative RTT: -inf")],
    )
    def test_negative_infinity_is_a_negative_field(self, column, message):
        trace = _trace(3)
        getattr(trace.time_seq, column)[2] = -math.inf
        with pytest.raises(ValueError) as raised:
            serialize_compressed(trace)
        assert str(raised.value) == message

    @pytest.mark.parametrize("count", [3, _VECTOR_MIN + 8])
    def test_infinite_packet_timestamp_from_the_compressor(self, count):
        packets = [
            PacketRecord(float(row), 1, row + 2, 10, 80, flags=2)
            for row in range(count - 1)
        ]
        packets.append(PacketRecord(math.inf, 3, 4, 11, 80, flags=2))
        trace = compress_trace(packets)
        with pytest.raises(CodecError) as raised:
            serialize_compressed(trace)
        assert str(raised.value) == f"time-seq[{count - 1}]: cannot quantize timestamp inf"

    @pytest.mark.parametrize("count", [3, _VECTOR_MIN + 8])
    def test_finite_trace_still_roundtrips(self, count):
        trace = _trace(count)
        assert deserialize_compressed(serialize_compressed(trace)).time_seq == trace.time_seq


def test_read_paths_build_no_records(tmp_path, monkeypatch):
    """Opening an archive, listing its flows, its stats and a replay read
    the columns: no TimeSeqRecord is constructed on the way."""
    packets = get_scenario("flood").build(8.0, 40.0, 1).packets
    path = tmp_path / "flood.fctca"
    with ArchiveWriter.create(path, segment_span=2.0) as writer:
        writer.feed(packets)
        writer.close()

    built = []
    validate = TimeSeqRecord.__post_init__

    def counting(record):
        built.append(record)
        validate(record)

    monkeypatch.setattr(TimeSeqRecord, "__post_init__", counting)
    with api.open(path) as store:
        flows = list(store.flows())
        store.stats()
        replayed = sum(1 for _ in store.packets())
    assert len(flows) > 1000 and replayed == len(packets)
    assert built == []
    # The probe counts: reading one row through the record view builds one.
    with api.open(path) as store:
        assert store.reader.load_segment(0).time_seq[0]
    assert len(built) == 1
