"""Tests for the four compressed datasets."""

import pytest

from repro.core.datasets import (
    AddressTable,
    CompressedTrace,
    DatasetId,
    LongFlowTemplate,
    ShortFlowTemplate,
    TimeSeqRecord,
)


class TestShortFlowTemplate:
    def test_n_is_value_count(self):
        assert ShortFlowTemplate((4, 16, 32)).n == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ShortFlowTemplate(())

    def test_rejects_out_of_byte_range(self):
        with pytest.raises(ValueError):
            ShortFlowTemplate((256,))
        with pytest.raises(ValueError):
            ShortFlowTemplate((-1,))


class TestLongFlowTemplate:
    def test_valid(self):
        template = LongFlowTemplate((1, 2, 3), (0.1, 0.2, 0.0))
        assert template.n == 3

    def test_rejects_mismatched_gaps(self):
        with pytest.raises(ValueError, match="mismatch"):
            LongFlowTemplate((1, 2), (0.1,))

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError, match="negative"):
            LongFlowTemplate((1,), (-0.5,))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LongFlowTemplate((), ())


NAN = float("nan")


class TestTemplateValidationPinned:
    """Which inputs the template checks accept, case by case.

    The checks run on every template the compressor builds, so they are
    written for speed; these cases pin their answers to the plain
    per-element rules ``0 <= v <= 255`` and ``not g < 0``.
    """

    @pytest.mark.parametrize(
        "values, accepted",
        [
            ((0, 255), True),
            ((-1,), False),
            ((256,), False),
            ((4, 256, 4), False),
            ((True, 5), True),
            ((False,), True),
        ],
    )
    def test_short_values(self, values, accepted):
        if accepted:
            assert ShortFlowTemplate(values).values == values
        else:
            with pytest.raises(ValueError, match="one byte"):
                ShortFlowTemplate(values)

    @pytest.mark.parametrize(
        "values, accepted",
        [((-1, 2), False), ((2, 256), False), ((True, 7), True)],
    )
    def test_long_values(self, values, accepted):
        gaps = (0.0,) * len(values)
        if accepted:
            assert LongFlowTemplate(values, gaps).values == values
        else:
            with pytest.raises(ValueError, match="one byte"):
                LongFlowTemplate(values, gaps)

    @pytest.mark.parametrize(
        "gaps, accepted",
        [
            ((0.5, 0.0), True),
            ((0.5, -0.25), False),
            ((-0.0, 0.0), True),
            ((NAN, 0.0), True),
            ((0.5, NAN), True),
            ((NAN, -1.0), False),
            ((-1.0, NAN), False),
            ((0.5, NAN, -1.0), False),
        ],
    )
    def test_long_gaps(self, gaps, accepted):
        values = (1,) * len(gaps)
        if accepted:
            assert LongFlowTemplate(values, gaps).n == len(gaps)
        else:
            with pytest.raises(ValueError, match="negative"):
                LongFlowTemplate(values, gaps)


class TestAddressTable:
    def test_intern_returns_stable_index(self):
        table = AddressTable()
        first = table.intern(0x0A000001)
        second = table.intern(0x0A000002)
        assert (first, second) == (0, 1)
        assert table.intern(0x0A000001) == 0
        assert len(table) == 2

    def test_lookup(self):
        table = AddressTable([1, 2, 3])
        assert table.lookup(1) == 2

    def test_iteration_order(self):
        table = AddressTable([5, 3, 9])
        assert list(table) == [5, 3, 9]

    def test_rejects_bad_address(self):
        with pytest.raises(ValueError):
            AddressTable().intern(1 << 32)

    def test_addresses_copy(self):
        table = AddressTable([1])
        table.addresses().append(99)
        assert len(table) == 1


class TestTimeSeqRecord:
    def test_valid(self):
        record = TimeSeqRecord(1.5, DatasetId.SHORT, 0, 0, rtt=0.05)
        assert record.dataset is DatasetId.SHORT

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(timestamp=-1.0, dataset=DatasetId.SHORT, template_index=0, address_index=0),
            dict(timestamp=0.0, dataset=DatasetId.SHORT, template_index=-1, address_index=0),
            dict(timestamp=0.0, dataset=DatasetId.SHORT, template_index=0, address_index=-2),
            dict(timestamp=0.0, dataset=DatasetId.SHORT, template_index=0, address_index=0, rtt=-0.1),
        ],
    )
    def test_rejects_negatives(self, kwargs):
        with pytest.raises(ValueError):
            TimeSeqRecord(**kwargs)


def build_compressed() -> CompressedTrace:
    compressed = CompressedTrace(name="t")
    compressed.short_templates.append(ShortFlowTemplate((4, 16, 52)))
    compressed.long_templates.append(
        LongFlowTemplate(tuple([32] * 60), tuple([0.01] * 60))
    )
    compressed.addresses.intern(0xC0A80001)
    compressed.time_seq.append(TimeSeqRecord(0.0, DatasetId.SHORT, 0, 0, 0.05))
    compressed.time_seq.append(TimeSeqRecord(1.0, DatasetId.LONG, 0, 0))
    return compressed


class TestCompressedTrace:
    def test_counts(self):
        compressed = build_compressed()
        assert compressed.flow_count() == 2
        assert compressed.template_counts() == (1, 1)
        assert compressed.packet_count() == 63

    def test_template_resolution(self):
        compressed = build_compressed()
        assert compressed.template_for(compressed.time_seq[0]).n == 3
        assert compressed.template_for(compressed.time_seq[1]).n == 60

    def test_sorted_time_seq(self):
        compressed = build_compressed()
        compressed.time_seq.append(TimeSeqRecord(0.5, DatasetId.SHORT, 0, 0))
        compressed.time_seq.append(TimeSeqRecord(0.0, DatasetId.LONG, 0, 0))
        # Row indices in timestamp order; equal timestamps keep file order.
        assert compressed.sorted_time_seq() == [0, 3, 2, 1]

    def test_validate_passes(self):
        build_compressed().validate()

    def test_validate_rejects_dangling_template(self):
        compressed = build_compressed()
        compressed.time_seq.append(TimeSeqRecord(2.0, DatasetId.SHORT, 7, 0))
        with pytest.raises(ValueError, match="template index"):
            compressed.validate()

    def test_validate_rejects_dangling_address(self):
        compressed = build_compressed()
        compressed.time_seq.append(TimeSeqRecord(2.0, DatasetId.SHORT, 0, 9))
        with pytest.raises(ValueError, match="address index"):
            compressed.validate()
