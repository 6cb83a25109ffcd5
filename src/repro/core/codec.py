"""Binary serialization of the four compressed datasets.

The on-disk container implements the paper's storage budget as closely
as a practical format allows (``docs/FORMAT.md`` is the normative
byte-level spec):

* ``time-seq`` record — **10 bytes per flow**: timestamp (u32, 100 µs
  units), dataset id + template index (u16: top bit = long flag), address
  index (u16), RTT (u16, 100 µs units, saturating at ~6.5 s).  The paper
  argues 8 bytes suffice (eq. 7); we spend 2 more for index headroom and
  note the deviation in DESIGN.md.
* ``short-flows-template`` — u8 length + one byte per ``f(p_i)`` value.
* ``long-flows-template`` — u16 length + per packet one value byte and a
  u16 inter-packet gap in 100 µs units (saturating) — 3 bytes per long
  packet.
* ``address`` — four bytes per unique destination.

All integers are big-endian.  The container self-describes with a magic,
a version byte and section counts, and the decoder validates referential
integrity before returning.

Two container generations exist:

* **v1** (version byte :data:`VERSION_V1`) stores the four sections
  back to back, uncompressed — the original layout.
* **v2** (version byte :data:`VERSION_V2`, the writer's default) frames
  each section with a 9-byte tag — backend id, stored length, raw
  length — and stores the section through that backend
  (:mod:`repro.core.backends`): ``raw`` keeps the v1 bytes, ``zlib`` /
  ``bz2`` / ``lzma`` entropy-code them, ``auto`` trial-picks per
  section.  The reader accepts both generations; a tag naming an
  unregistered backend raises :class:`CodecError` instead of decoding
  garbage.

Capacity limits imposed by the compact layout (checked, raising
:class:`~repro.core.errors.CodecError`): at most 32768 templates per
dataset and 65536 unique addresses; inter-packet gaps and RTTs saturate
at 6.5535 s; timestamps cover ~119 hours at 100 µs resolution.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from itertools import chain, repeat
from operator import and_, gt, truediv
from typing import BinaryIO, Mapping

from repro.core.backends import (
    AUTO,
    backend_for_tag,
    encode_auto,
    get_backend,
)
from repro.core.datasets import (
    AddressTable,
    CompressedTrace,
    LongFlowTemplate,
    ShortFlowTemplate,
    TimeSeqColumns,
    stored_long_template,
)
from repro.core.errors import CodecError
from repro.obs import current as obs_current

MAGIC = b"FCTC"
VERSION_V1 = 2  # legacy layout: untagged, raw sections
VERSION_V2 = 3  # per-section backend tags
VERSION = VERSION_V2  # what the writer emits

TIMESTAMP_UNITS_PER_SECOND = 10_000  # 100 µs resolution
RTT_UNITS_PER_SECOND = 10_000
GAP_UNITS_PER_SECOND = 10_000

MAX_TEMPLATE_INDEX = 0x7FFF
MAX_ADDRESS_INDEX = 0xFFFF

_MAX_U16 = 0xFFFF
_MAX_U32 = 0xFFFFFFFF

_HEADER = struct.Struct(">4sBxH I IIII")
_TIME_SEQ = struct.Struct(">IHHH")
_SECTION_TAG = struct.Struct(">BII")  # backend tag, stored length, raw length
TIME_SEQ_RECORD_BYTES = _TIME_SEQ.size  # 10
LONG_PACKET_BYTES = 3  # 1 value byte + u16 gap
SECTION_TAG_BYTES = _SECTION_TAG.size  # 9

SECTION_NAMES = (
    "short_flows_template",
    "long_flows_template",
    "address",
    "time_seq",
)
"""The four dataset sections, in on-disk order."""


def _read_exact(stream: BinaryIO, size: int, what: str) -> bytes:
    data = stream.read(size)
    if len(data) != size:
        raise CodecError(f"truncated input while reading {what}")
    return data


def quantize_timestamp(seconds: float) -> int:
    """Timestamp units as stored on disk (100 µs, saturating u32)."""
    return min(int(round(seconds * TIMESTAMP_UNITS_PER_SECOND)), _MAX_U32)


def quantize_rtt(seconds: float) -> int:
    """RTT units as stored on disk (100 µs, saturating u16)."""
    return min(int(round(seconds * RTT_UNITS_PER_SECOND)), _MAX_U16)


def quantize_gap(seconds: float) -> int:
    """Long-flow inter-packet gap units as stored on disk (100 µs, u16)."""
    return min(int(round(seconds * GAP_UNITS_PER_SECOND)), _MAX_U16)


# -- section bodies (shared by both container generations) -----------------


def _pack_short_templates(templates: list[ShortFlowTemplate]) -> bytes:
    out = bytearray()
    for template in templates:
        if template.n > 0xFF:
            raise CodecError(f"short template too long for codec: {template.n}")
        out.append(template.n)
        out.extend(template.values)
    return bytes(out)


# Sections shorter than this pack with the plain loops — array setup
# costs more than it saves on a handful of records.  numpy is imported
# inside the vectorized packers only: replay, query and stats import this
# module to parse, and must not load it.
_VECTOR_MIN = 32


def _pack_long_templates(templates: list[LongFlowTemplate]) -> bytes:
    out = bytearray()
    encoded = _vector_gap_units(templates)
    for template in templates:
        if template.n > _MAX_U16:
            raise CodecError(f"long template too long for codec: {template.n}")
        out.extend(struct.pack(">H", template.n))
        out.extend(bytes(template.values))
        units = encoded.get(id(template))
        if units is not None:
            out.extend(units)
            continue
        gap_units = [quantize_gap(gap) for gap in template.gaps]
        out.extend(struct.pack(f">{template.n}H", *gap_units))
    return bytes(out)


def _vector_gap_units(templates: list[LongFlowTemplate]) -> dict[int, bytes]:
    """The packed gap units of every template of ``_VECTOR_MIN`` or more
    gaps that quantize without error, keyed by ``id``, in one numpy pass.

    A template left out (a NaN or negative gap) takes the scalar path,
    which raises its error.
    """
    vectored = [template for template in templates if template.n >= _VECTOR_MIN]
    if not vectored:
        return {}
    import numpy as np

    sizes = np.array([template.n for template in vectored])
    units = np.minimum(
        np.rint(
            np.fromiter(
                chain.from_iterable(template.gaps for template in vectored),
                dtype=np.float64,
                count=int(sizes.sum()),
            )
            * GAP_UNITS_PER_SECOND
        ),
        float(_MAX_U16),
    )
    starts = np.cumsum(sizes) - sizes
    fits = np.minimum.reduceat(units, starts) >= 0
    units[~np.repeat(fits, sizes)] = 0  # never packed; keeps the cast clean
    packed = units.astype(">u2").tobytes()
    return {
        id(template): packed[2 * start : 2 * (start + size)]
        for template, start, size, fit in zip(
            vectored, starts.tolist(), sizes.tolist(), fits.tolist()
        )
        if fit
    }


def _pack_addresses(addresses: AddressTable) -> bytes:
    if len(addresses) >= _VECTOR_MIN:
        import numpy as np

        try:
            values = np.fromiter(
                addresses, dtype=np.uint32, count=len(addresses)
            )
        except (OverflowError, ValueError):
            pass  # out-of-range entry: scalar path's struct error
        else:
            return values.astype(">u4").tobytes()
    return b"".join(struct.pack(">I", address) for address in addresses)


def _pack_time_seq_scalar(columns: TimeSeqColumns) -> bytes:
    out = bytearray()
    pack = _TIME_SEQ.pack
    for row, (timestamp, is_long, template_ref, address_index, rtt) in enumerate(
        zip(*columns.columns())
    ):
        timestamp_units = _quantize_field(row, "timestamp", timestamp, quantize_timestamp)
        if is_long:
            template_ref |= 0x8000
        rtt_units = _quantize_field(row, "RTT", rtt, quantize_rtt)
        out += pack(timestamp_units, template_ref, address_index, rtt_units)
    return bytes(out)


def _quantize_field(row: int, what: str, seconds: float, quantize) -> int:
    """``quantize(seconds)``; a NaN or infinite unit count raises a CodecError."""
    try:
        return quantize(seconds)
    except (OverflowError, ValueError):
        raise CodecError(
            f"time-seq[{row}]: cannot quantize {what} {seconds!r}"
        ) from None


# The vectorized time-seq record as a structured dtype: the same
# big-endian u32/u16/u16/u16 layout ``_TIME_SEQ`` packs.
_TIME_SEQ_DTYPE_FIELDS = [
    ("ts", ">u4"),
    ("ref", ">u2"),
    ("addr", ">u2"),
    ("rtt", ">u2"),
]


def _pack_time_seq(columns: TimeSeqColumns) -> bytes:
    """The time-seq section of a trace :func:`_check_counts` passed: every
    field is non-negative and every index fits, so only a field with no
    unit count can fail, and the scalar packer names its row."""
    if len(columns) < _VECTOR_MIN:
        return _pack_time_seq_scalar(columns)
    import numpy as np

    ts_units = np.rint(
        np.array(columns.timestamps, dtype=np.float64) * TIMESTAMP_UNITS_PER_SECOND
    )
    rtt_units = np.rint(np.array(columns.rtts, dtype=np.float64) * RTT_UNITS_PER_SECOND)
    if not (np.isfinite(ts_units).all() and np.isfinite(rtt_units).all()):
        return _pack_time_seq_scalar(columns)
    refs = np.array(columns.template_index, dtype=np.int64)
    long_flag = np.array(columns.long, dtype=np.int64)
    rows = np.empty(len(columns), dtype=np.dtype(_TIME_SEQ_DTYPE_FIELDS))
    rows["ts"] = np.minimum(ts_units, float(_MAX_U32)).astype(np.uint32)
    rows["ref"] = (refs | (long_flag << 15)).astype(np.uint16)
    rows["addr"] = np.array(columns.address_index, dtype=np.int64).astype(np.uint16)
    rows["rtt"] = np.minimum(rtt_units, float(_MAX_U16)).astype(np.uint16)
    return rows.tobytes()


def _parse_short_templates(
    stream: BinaryIO, count: int
) -> list[ShortFlowTemplate]:
    templates: list[ShortFlowTemplate] = []
    for _ in range(count):
        (n,) = _read_exact(stream, 1, "short template length")
        values = tuple(_read_exact(stream, n, "short template values"))
        try:
            templates.append(ShortFlowTemplate(values))
        except ValueError as exc:
            raise CodecError(f"invalid short template: {exc}") from exc
    return templates


def _parse_long_templates(stream: BinaryIO, count: int) -> list[LongFlowTemplate]:
    templates: list[LongFlowTemplate] = []
    for _ in range(count):
        (n,) = struct.unpack(">H", _read_exact(stream, 2, "long template length"))
        if n == 0:
            raise CodecError(
                "invalid long template: a template needs at least one packet value"
            )
        values = _read_exact(stream, n, "long template values")
        raw = _read_exact(stream, 2 * n, "long template gaps")
        gaps = map(truediv, struct.unpack(f">{n}H", raw), repeat(GAP_UNITS_PER_SECOND))
        templates.append(stored_long_template(values, gaps))
    return templates


def _parse_addresses(stream: BinaryIO, count: int) -> AddressTable:
    addresses = AddressTable()
    for _ in range(count):
        (address,) = struct.unpack(">I", _read_exact(stream, 4, "address"))
        addresses.intern(address)
    if len(addresses) != count:
        raise CodecError("duplicate addresses in address dataset")
    return addresses


def _parse_time_seq(stream: BinaryIO, count: int) -> TimeSeqColumns:
    data = _read_exact(stream, TIME_SEQ_RECORD_BYTES * count, "time-seq record")
    columns = TimeSeqColumns()
    if count:
        timestamp_units, template_refs, address_indices, rtt_units = zip(
            *_TIME_SEQ.iter_unpack(data)
        )
        columns.timestamps = list(
            map(truediv, timestamp_units, repeat(TIMESTAMP_UNITS_PER_SECOND))
        )
        columns.long = list(map(gt, template_refs, repeat(MAX_TEMPLATE_INDEX)))
        columns.template_index = list(
            map(and_, template_refs, repeat(MAX_TEMPLATE_INDEX))
        )
        columns.address_index = list(address_indices)
        columns.rtts = list(map(truediv, rtt_units, repeat(RTT_UNITS_PER_SECOND)))
    return columns


# -- backend resolution ----------------------------------------------------


def resolve_backend_spec(
    backend: str | Mapping[str, str] | None,
) -> dict[str, str]:
    """Normalize a backend request to a per-section name mapping.

    ``None`` means ``raw`` everywhere (the paper's format); a string
    applies one backend — or ``auto`` — to every section; a mapping
    assigns sections individually (unlisted sections default to ``raw``).
    Unknown section or backend names raise :class:`CodecError` before
    any bytes are written.
    """
    if backend is None:
        return {section: "raw" for section in SECTION_NAMES}
    if isinstance(backend, str):
        spec = {section: backend for section in SECTION_NAMES}
    else:
        unknown = set(backend) - set(SECTION_NAMES)
        if unknown:
            raise CodecError(
                f"unknown section names in backend spec: {sorted(unknown)} "
                f"(sections: {', '.join(SECTION_NAMES)})"
            )
        spec = {
            section: backend.get(section, "raw") for section in SECTION_NAMES
        }
    for name in spec.values():
        if name != AUTO:
            get_backend(name)  # raises CodecError for unknown names
    return spec


def validate_backend_request(
    backend: str | Mapping[str, str] | None, level: int | None = None
) -> None:
    """Fail fast on a request :func:`write_container` would reject.

    Long-running producers (the archive writer) call this before doing
    any work: an unknown backend name or an out-of-range level on an
    explicitly named backend should fail before a file is truncated or
    an input compressed, not at the first segment write.
    """
    resolve_backend_spec(backend)
    if isinstance(backend, str) and backend != AUTO:
        get_backend(backend).validate_level(level)


@dataclass(frozen=True)
class SectionInfo:
    """One section's framing as stored: which backend, how many bytes."""

    name: str
    backend: str
    stored_bytes: int
    raw_bytes: int


@dataclass(frozen=True)
class ContainerWriteResult:
    """What :func:`write_container` produced: total length + section map."""

    length: int
    sections: tuple[SectionInfo, ...]

    @property
    def backend_tags(self) -> tuple[int, int, int, int]:
        """The four wire tags, in section order (for the archive index)."""
        return tuple(get_backend(s.backend).tag for s in self.sections)


def _check_counts(compressed: CompressedTrace) -> None:
    compressed.validate()
    if len(compressed.short_templates) > MAX_TEMPLATE_INDEX + 1:
        raise CodecError(
            f"too many short templates for codec: {len(compressed.short_templates)}"
        )
    if len(compressed.long_templates) > MAX_TEMPLATE_INDEX + 1:
        raise CodecError(
            f"too many long templates for codec: {len(compressed.long_templates)}"
        )
    if len(compressed.addresses) > MAX_ADDRESS_INDEX + 1:
        raise CodecError(
            f"too many addresses for codec: {len(compressed.addresses)}"
        )


def _pack_header(compressed: CompressedTrace, version: int) -> bytes:
    name_bytes = compressed.name.encode("utf-8")[:_MAX_U16]
    return (
        _HEADER.pack(
            MAGIC,
            version,
            len(name_bytes),
            min(compressed.original_packet_count, _MAX_U32),
            len(compressed.short_templates),
            len(compressed.long_templates),
            len(compressed.addresses),
            len(compressed.time_seq),
        )
        + name_bytes
    )


def _section_bodies(compressed: CompressedTrace) -> tuple[bytes, bytes, bytes, bytes]:
    return (
        _pack_short_templates(compressed.short_templates),
        _pack_long_templates(compressed.long_templates),
        _pack_addresses(compressed.addresses),
        _pack_time_seq(compressed.time_seq),
    )


# -- writing ---------------------------------------------------------------


def write_container(
    stream: BinaryIO,
    compressed: CompressedTrace,
    *,
    backend: str | Mapping[str, str] | None = None,
    level: int | None = None,
) -> ContainerWriteResult:
    """Write one v2 container; returns the per-section backend accounting.

    ``backend`` follows :func:`resolve_backend_spec` (``None`` = raw
    everywhere, a name, ``"auto"``, or a per-section mapping); ``level``
    is forwarded to backends that take one.  With ``auto``, each section
    is trial-compressed independently and the winner's tag — never the
    word "auto" — lands on disk.
    """
    _check_counts(compressed)
    spec = resolve_backend_spec(backend)
    registry = obs_current()
    with registry.timer(
        "stage.encode", "wall time packing and backend-coding sections"
    ).time():
        bodies = _section_bodies(compressed)
        # A plain backend name is an explicit request: a level it cannot
        # honor is an error.  Under auto / per-section mappings / the raw
        # default the level is advisory — it applies where a leveled codec
        # ends up and is ignored by the rest (raw).
        strict_level = isinstance(backend, str) and backend != AUTO
        sections: list[SectionInfo] = []
        payloads: list[bytes] = []
        for section, body in zip(SECTION_NAMES, bodies):
            name = spec[section]
            if name == AUTO:
                codec, payload = encode_auto(body, level=level)
            else:
                codec = get_backend(name)
                payload = codec.compress(
                    body, level if strict_level else codec.advisory_level(level)
                )
            sections.append(
                SectionInfo(
                    name=section,
                    backend=codec.name,
                    stored_bytes=len(payload),
                    raw_bytes=len(body),
                )
            )
            payloads.append(payload)
    registry.counter("codec.containers", "v2 containers written").inc()
    registry.counter("codec.bytes_raw", "section bytes before backend coding").inc(
        sum(info.raw_bytes for info in sections)
    )
    registry.counter("codec.bytes_stored", "section bytes after backend coding").inc(
        sum(info.stored_bytes for info in sections)
    )

    start = stream.tell()
    stream.write(_pack_header(compressed, VERSION_V2))
    for info in sections:
        stream.write(
            _SECTION_TAG.pack(
                get_backend(info.backend).tag, info.stored_bytes, info.raw_bytes
            )
        )
    for payload in payloads:
        stream.write(payload)
    return ContainerWriteResult(
        length=stream.tell() - start, sections=tuple(sections)
    )


def write_compressed(
    stream: BinaryIO,
    compressed: CompressedTrace,
    *,
    backend: str | Mapping[str, str] | None = None,
    level: int | None = None,
) -> int:
    """Write one container to ``stream``; returns the bytes written.

    The stream form lets callers pack several containers back to back —
    the segmented archive stores each segment as one container.  Section
    bodies are buffered in memory before writing (the v2 tags need each
    payload's length up front), so peak memory is one serialized
    segment, not one serialized archive.  Callers that need the
    per-section backend accounting (the archive writer) use
    :func:`write_container`.
    """
    return write_container(stream, compressed, backend=backend, level=level).length


def serialize_compressed(
    compressed: CompressedTrace,
    *,
    backend: str | Mapping[str, str] | None = None,
    level: int | None = None,
) -> bytes:
    """Serialize the four datasets into the container format (v2)."""
    stream = io.BytesIO()
    write_container(stream, compressed, backend=backend, level=level)
    return stream.getvalue()


def write_compressed_v1(stream: BinaryIO, compressed: CompressedTrace) -> int:
    """Write the legacy v1 (untagged, raw) container layout.

    Kept for the format-compatibility suite and spec conformance tests;
    new files should use :func:`write_compressed`, whose ``raw`` default
    stores the same section bytes behind 36 bytes of tags.
    """
    _check_counts(compressed)
    start = stream.tell()
    stream.write(_pack_header(compressed, VERSION_V1))
    for body in _section_bodies(compressed):
        stream.write(body)
    return stream.tell() - start


def serialize_compressed_v1(compressed: CompressedTrace) -> bytes:
    """:func:`write_compressed_v1` into fresh bytes."""
    stream = io.BytesIO()
    write_compressed_v1(stream, compressed)
    return stream.getvalue()


# -- reading ---------------------------------------------------------------


def deserialize_compressed(data: bytes) -> CompressedTrace:
    """Parse a container produced by :func:`serialize_compressed`."""
    stream = io.BytesIO(data)
    result = read_compressed(stream)
    trailing = stream.read(1)
    if trailing:
        raise CodecError("trailing bytes after container")
    return result


def _read_header(stream: BinaryIO) -> tuple[int, str, int, tuple[int, int, int, int]]:
    """Parse magic/version/name/counts; returns (version, name, packets, counts)."""
    header = _read_exact(stream, _HEADER.size, "header")
    (
        magic,
        version,
        name_length,
        original_packets,
        short_count,
        long_count,
        address_count,
        time_seq_count,
    ) = _HEADER.unpack(header)
    if magic != MAGIC:
        raise CodecError(f"bad magic: {magic!r}")
    if version not in (VERSION_V1, VERSION_V2):
        raise CodecError(f"unsupported version: {version}")
    try:
        name = _read_exact(stream, name_length, "name").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"container name is not UTF-8: {exc}") from exc
    return (
        version,
        name,
        original_packets,
        (short_count, long_count, address_count, time_seq_count),
    )


def _section_parsers(counts: tuple[int, int, int, int]):
    """The four section-body parsers bound to the header's counts."""
    short_count, long_count, address_count, time_seq_count = counts
    return (
        lambda s: _parse_short_templates(s, short_count),
        lambda s: _parse_long_templates(s, long_count),
        lambda s: _parse_addresses(s, address_count),
        lambda s: _parse_time_seq(s, time_seq_count),
    )


def _read_section_tags(stream: BinaryIO) -> list[tuple[int, int, int]]:
    tags = []
    for section in SECTION_NAMES:
        tags.append(
            _SECTION_TAG.unpack(
                _read_exact(stream, SECTION_TAG_BYTES, f"{section} section tag")
            )
        )
    return tags


def _decode_section(
    stream: BinaryIO, section: str, tag: tuple[int, int, int]
) -> io.BytesIO:
    """Read + backend-decode one tagged section into a parseable stream."""
    backend_tag, stored_length, raw_length = tag
    codec = backend_for_tag(backend_tag)
    payload = _read_exact(stream, stored_length, f"{section} section payload")
    raw = codec.decompress(payload, max_size=raw_length)
    if len(raw) != raw_length:
        raise CodecError(
            f"{section} section decoded to {len(raw)} bytes, "
            f"tag promised {raw_length}"
        )
    return io.BytesIO(raw)


def _check_consumed(section_stream: io.BytesIO, section: str) -> None:
    if section_stream.read(1):
        raise CodecError(f"trailing bytes inside {section} section")


def read_compressed(stream: BinaryIO) -> CompressedTrace:
    """Parse one container starting at the stream's current position.

    Unlike :func:`deserialize_compressed` this does not require the
    container to exhaust the stream, so segment-granular readers (the
    ``.fctca`` archive) can decode one segment out of many in place.
    Both container generations decode transparently: v1 sections are
    parsed in place, v2 sections are routed through the backend each
    tag names.
    """
    version, name, original_packets, counts = _read_header(stream)
    parsers = _section_parsers(counts)

    if version == VERSION_V1:
        parsed = [parser(stream) for parser in parsers]
    else:
        tags = _read_section_tags(stream)
        parsed = []
        for section, tag, parser in zip(SECTION_NAMES, tags, parsers):
            section_stream = _decode_section(stream, section, tag)
            parsed.append(parser(section_stream))
            _check_consumed(section_stream, section)
    short_templates, long_templates, addresses, time_seq = parsed

    result = CompressedTrace(
        short_templates=short_templates,
        long_templates=long_templates,
        addresses=addresses,
        time_seq=time_seq,
        name=name,
        original_packet_count=original_packets,
    )
    try:
        result.validate()
    except ValueError as exc:
        raise CodecError(f"inconsistent container: {exc}") from exc
    return result


# -- inspection ------------------------------------------------------------


@dataclass(frozen=True)
class ContainerInfo:
    """A container's framing, read without decoding section payloads.

    ``format_version`` is the generation (1 or 2), not the raw version
    byte; ``sections`` reports, per section, the backend that stored it
    and the stored vs. raw byte counts — what ``repro-trace inspect``
    renders as per-section shares.
    """

    format_version: int
    name: str
    total_bytes: int
    sections: tuple[SectionInfo, ...]


def container_info(data: bytes) -> ContainerInfo:
    """Describe a serialized container's sections and backends.

    For v2 this reads only the header and section tags (payloads are
    checked for presence but never decoded); v1 sections carry no
    framing, so their extents are found by parsing the section bodies.
    Truncated input raises :class:`CodecError` rather than returning
    framing the file cannot actually hold.
    """
    stream = io.BytesIO(data)
    version, name, _packets, counts = _read_header(stream)
    sections: list[SectionInfo] = []
    if version == VERSION_V1:
        for section, parser in zip(SECTION_NAMES, _section_parsers(counts)):
            start = stream.tell()
            parser(stream)
            size = stream.tell() - start
            sections.append(
                SectionInfo(
                    name=section, backend="raw", stored_bytes=size, raw_bytes=size
                )
            )
    else:
        for section, tag in zip(SECTION_NAMES, _read_section_tags(stream)):
            backend_tag, stored_length, raw_length = tag
            sections.append(
                SectionInfo(
                    name=section,
                    backend=backend_for_tag(backend_tag).name,
                    stored_bytes=stored_length,
                    raw_bytes=raw_length,
                )
            )
            if stream.seek(stored_length, io.SEEK_CUR) > len(data):
                raise CodecError(
                    f"truncated input while reading {section} section payload"
                )
    return ContainerInfo(
        format_version=1 if version == VERSION_V1 else 2,
        name=name,
        total_bytes=len(data),
        sections=tuple(sections),
    )


def dataset_sizes(
    compressed: CompressedTrace, format_version: int = 2
) -> dict[str, int]:
    """Per-dataset *raw* serialized sizes in bytes (evaluation tables).

    These are the pre-backend section encodings — the paper's storage
    budget.  ``header`` includes the section-tag framing of the given
    container generation (36 bytes for v2, none for v1), so ``total``
    equals the serialized length for the ``raw`` backend at that
    generation; a container written with an entropy-coding backend
    stores fewer bytes (see :func:`container_info` for stored sizes).
    """
    short_bytes = sum(1 + t.n for t in compressed.short_templates)
    long_bytes = sum(2 + t.n * LONG_PACKET_BYTES for t in compressed.long_templates)
    address_bytes = 4 * len(compressed.addresses)
    time_seq_bytes = TIME_SEQ_RECORD_BYTES * len(compressed.time_seq)
    name_bytes = len(compressed.name.encode("utf-8")[:_MAX_U16])
    header_bytes = _HEADER.size + name_bytes
    if format_version >= 2:
        header_bytes += len(SECTION_NAMES) * SECTION_TAG_BYTES
    return {
        "header": header_bytes,
        "short_flows_template": short_bytes,
        "long_flows_template": long_bytes,
        "address": address_bytes,
        "time_seq": time_seq_bytes,
        "total": header_bytes + short_bytes + long_bytes
        + address_bytes + time_seq_bytes,
    }
