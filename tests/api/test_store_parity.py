"""Parity goldens: every flow-level verb, pinned per store kind.

One 6 s web trace (seed 11) is stored five ways — TSH, pcap, a
``.fctc`` container, that container wrapped as a one-segment ``.fctca``
and a multi-segment ``.fctca`` built straight from the TSH — and each
store's flow-level verbs are reduced to sha256 digests: ``flows()``
rows, ``query()`` rows plus :class:`~repro.query.engine.QueryStats`,
``stats()`` reports, ``matrices()`` cells, filtered ``packets()`` with
their stats, and ``export`` bytes.  The digests were recorded before the
store verbs were written once over a segment sequence; any change in
rows, accounting or bytes fails here with the verb and kind named.  The
multi-segment archive's limited ``packets`` entries were re-recorded
when a limited replay's ``segments_matched`` came to count only the
segments it reached, as ``query`` does (14, 3, 14 became 1, 1, 1).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import api
from repro.query import FlowKind, MatchAll, QueryStats, TimeRange
from repro.synth import generate_web_trace

KINDS = ("tsh", "pcap", "fctc", "fctca1", "fctca")
REPLAY_KINDS = ("fctc", "fctca1", "fctca")

PREDICATES = {
    "all": (MatchAll(), None),
    "excluded": (TimeRange(100.0, 200.0), None),
    "partial": (TimeRange(1.5, 3.25), None),
    "short3": (FlowKind("short"), 3),
}


def _digest(value) -> str:
    if not isinstance(value, bytes):
        value = json.dumps(value, sort_keys=True, default=repr).encode()
    return hashlib.sha256(value).hexdigest()[:16]


def _rows(flows) -> list:
    return [repr(flow) for flow in flows]


def _report(report) -> dict:
    """A matrix report's document minus its source path (a temp dir)."""
    document = report.to_dict()
    del document["source"]
    return document


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("parity")
    trace = generate_web_trace(duration=6.0, flow_rate=40.0, seed=11)
    found = {"tsh": workdir / "t.tsh", "pcap": workdir / "t.pcap"}
    trace.save_tsh(found["tsh"])
    trace.save_pcap(found["pcap"])
    found["fctc"] = workdir / "t.fctc"
    with api.open(found["tsh"]) as store:
        store.compress(found["fctc"])
    found["fctca1"] = workdir / "one.fctca"
    with api.open(found["fctc"]) as store:
        store.compress(found["fctca1"])
    found["fctca"] = workdir / "t.fctca"
    api.create_archive(
        found["fctca"], [found["tsh"]], options=api.Options.make(segment_span=1.0)
    )
    return found


def verb_digests(path, tmp_path, replay: bool) -> dict[str, str]:
    """Every pinned verb's digest for one store, keyed ``verb:case``."""
    found: dict[str, str] = {}
    with api.open(path) as store:
        found["flows"] = _digest(_rows(store.flows()))
        for name, (predicate, limit) in PREDICATES.items():
            result = store.query(predicate, limit=limit)
            found[f"query:{name}"] = _digest(
                [_rows(result.flows), dataclasses.asdict(result.stats)]
            )
        found["stats:window"] = _digest(_report(store.stats(window=2.0)))
        found["stats:decode"] = _digest(
            _report(store.stats(window=2.0, since=1.0, until=4.0, method="decode"))
        )
        found["matrices"] = _digest(
            [
                [matrix.index, matrix.start, matrix.end, sorted(matrix.iter_cells())]
                for matrix in store.matrices(window=2.0)
            ]
        )
        if replay:
            for name, (predicate, _limit) in PREDICATES.items():
                stats = QueryStats()
                packets = list(store.packets(predicate, limit=5, stats=stats))
                found[f"packets:{name}"] = _digest(
                    [[repr(packet) for packet in packets], dataclasses.asdict(stats)]
                )
            filtered = tmp_path / "filtered.tsh"
            store.export(filtered, TimeRange(1.5, 3.25))
            found["export:partial"] = _digest(filtered.read_bytes())
        exported = tmp_path / "export.tsh"
        store.export(exported)
        found["export"] = _digest(exported.read_bytes())
    return found


GOLDEN: dict[str, dict[str, str]] = {
    "tsh": {
        "flows": "8724bcf674072d88",
        "query:all": "04d8e8a7a4844c0b",
        "query:excluded": "99aab3e98f6d4c0d",
        "query:partial": "5127bc3a2d2ee828",
        "query:short3": "bd82db1d236bb5a8",
        "stats:window": "f7b6ee4500145b6d",
        "stats:decode": "f7894fe70c1582f5",
        "matrices": "143d7bf872d31f9a",
        "export": "da6346f484dd4ec0",
    },
    "pcap": {
        "flows": "8724bcf674072d88",
        "query:all": "190caf6318fbae96",
        "query:excluded": "d8898f57133e380f",
        "query:partial": "c2baaf9fd7acef2d",
        "query:short3": "d06d5dc5c96dddd7",
        "stats:window": "f7b6ee4500145b6d",
        "stats:decode": "f7894fe70c1582f5",
        "matrices": "143d7bf872d31f9a",
        "export": "da6346f484dd4ec0",
    },
    "fctc": {
        "flows": "cd4395c641a1525b",
        "query:all": "245c540d3d1f504d",
        "query:excluded": "a2652e0d4bd75e34",
        "query:partial": "fe9427a01cb69c37",
        "query:short3": "c76e79a40d0a1f79",
        "stats:window": "f7b6ee4500145b6d",
        "stats:decode": "f7894fe70c1582f5",
        "matrices": "143d7bf872d31f9a",
        "packets:all": "6ff164e86dd3b459",
        "packets:excluded": "a2652e0d4bd75e34",
        "packets:partial": "c190d38099cfa4fa",
        "packets:short3": "6ff164e86dd3b459",
        "export:partial": "1133124056de604c",
        "export": "f0e8d14805bee2f7",
    },
    "fctca1": {
        "flows": "cd4395c641a1525b",
        "query:all": "245c540d3d1f504d",
        "query:excluded": "57e0dff7bb54d9a2",
        "query:partial": "fe9427a01cb69c37",
        "query:short3": "c76e79a40d0a1f79",
        "stats:window": "f7b6ee4500145b6d",
        "stats:decode": "f7894fe70c1582f5",
        "matrices": "143d7bf872d31f9a",
        "packets:all": "6ff164e86dd3b459",
        "packets:excluded": "57e0dff7bb54d9a2",
        "packets:partial": "c190d38099cfa4fa",
        "packets:short3": "6ff164e86dd3b459",
        "export:partial": "1133124056de604c",
        "export": "f0e8d14805bee2f7",
    },
    "fctca": {
        "flows": "a0d3b02145acf5fc",
        "query:all": "d73cdb8d0b85fdc4",
        "query:excluded": "d06cf2b71b441b88",
        "query:partial": "03aa90473335d6c2",
        "query:short3": "7f0fc8ec317283d3",
        "stats:window": "2fdcc773bcbd3a74",
        "stats:decode": "5b4bc1a7520f45fe",
        "matrices": "0097c62ed53725dd",
        "packets:all": "d664b17d88659481",
        "packets:excluded": "d06cf2b71b441b88",
        "packets:partial": "b24d72974c396829",
        "packets:short3": "d664b17d88659481",
        "export:partial": "e8294d43e86aa118",
        "export": "9537e885f707fd75",
    },
}


@pytest.mark.parametrize("kind", KINDS)
def test_verbs_match_recorded_digests(paths, tmp_path, kind):
    found = verb_digests(paths[kind], tmp_path, kind in REPLAY_KINDS)
    assert found == GOLDEN[kind]
