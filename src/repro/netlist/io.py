"""JSON (de)serialization for netlists, and the content hash over the same
fields.

A small, explicit on-disk format so generated benchmarks can be cached and
shared between the test suite, the examples and the benchmark harness.
"""

from __future__ import annotations

import hashlib
import json
from itertools import chain
from pathlib import Path

import numpy as np

from repro.errors import NetlistValidationError
from repro.netlist.cell import CELL_TYPE_CODES, CellType
from repro.netlist.netlist import Netlist
from repro.netlist.validate import validate_netlist

_FORMAT_VERSION = 1
#: version of the netlist content hash's encoding
_NETLIST_KEY_VERSION = 2
_KIND_VALUES = [t.value for t in CELL_TYPE_CODES]


def netlist_to_json(netlist: Netlist) -> dict:
    """Serialize to a plain-dict document."""
    return {
        "format": _FORMAT_VERSION,
        "name": netlist.name,
        "target_freq_mhz": netlist.target_freq_mhz,
        "cells": [
            {
                "name": name,
                "ctype": _KIND_VALUES[kind],
                "is_datapath": dp,
                "fixed_xy": list(xy) if xy else None,
                "attrs": attrs,
            }
            for name, kind, dp, xy, attrs in zip(
                netlist._cname, netlist._ckind, netlist._cdp, netlist._cxy, netlist._cattrs
            )
        ],
        "nets": [
            {"name": name, "driver": driver, "sinks": list(sinks), "weight": weight}
            for name, driver, sinks, weight in zip(
                netlist._nname, netlist._ndriver, netlist._nsinks, netlist._nweight
            )
        ],
        "macros": [list(m.dsps) for m in netlist.macros],
    }


def netlist_from_json(doc: dict) -> Netlist:
    """Rebuild a netlist from :func:`netlist_to_json` output."""
    if doc.get("format") != _FORMAT_VERSION:
        raise NetlistValidationError(
            f"unsupported netlist format {doc.get('format')!r} "
            f"(this build reads format {_FORMAT_VERSION})"
        )
    netlist = Netlist(doc["name"])
    netlist.target_freq_mhz = doc.get("target_freq_mhz")
    try:
        for cdoc in doc["cells"]:
            netlist.add_cell(
                cdoc["name"],
                CellType(cdoc["ctype"]),
                is_datapath=cdoc.get("is_datapath"),
                fixed_xy=tuple(cdoc["fixed_xy"]) if cdoc.get("fixed_xy") else None,
                attrs=cdoc.get("attrs") or {},
            )
        for ndoc in doc["nets"]:
            netlist.add_net(
                ndoc["name"], ndoc["driver"], ndoc["sinks"], weight=ndoc.get("weight", 1.0)
            )
        for chain in doc["macros"]:
            netlist.add_macro(chain)
        netlist.validate()
    except NetlistValidationError:
        raise
    except (ValueError, IndexError, KeyError) as exc:
        # construction errors become one typed, cause-chained diagnostic:
        # a net referencing a missing cell index dangles, a repeated cell
        # name collides, etc.
        raise NetlistValidationError(
            f"netlist document {netlist.name!r} is invalid ({exc}); if the "
            "net references a missing cell index it dangles — regenerate or "
            "repair the document"
        ) from exc
    return netlist


def netlist_content_hash(netlist: Netlist) -> str:
    """SHA-256 of every field :func:`netlist_to_json` writes, bound to its
    cell or net position (the serve cache key's netlist part; see
    :mod:`repro.serve.cache`). Read from the columns; nothing is left on
    the netlist."""
    xy = netlist._cxy
    fixed = [i for i, p in enumerate(xy) if p]
    driver, nsinks, sinks = netlist._pins()
    chains = [m.dsps for m in netlist.macros]
    doc = [
        _NETLIST_KEY_VERSION, netlist.name, netlist.target_freq_mhz,
        netlist._cname, [_KIND_VALUES[k] for k in netlist._ckind], netlist._cdp,
        netlist._cattrs, netlist._nname,
    ]
    ints = (
        fixed, driver, nsinks, sinks,
        list(map(len, chains)), list(chain.from_iterable(chains)),
    )
    floats = ([xy[i] for i in fixed], netlist._nweight)
    h = hashlib.sha256()
    for data in (
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8"),
        *(np.array(a, dtype=np.int64).tobytes() for a in ints),
        *(np.array(a, dtype=np.float64).tobytes() for a in floats),
    ):
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def save_netlist(netlist: Netlist, path: str | Path) -> None:
    Path(path).write_text(json.dumps(netlist_to_json(netlist)))


def load_netlist(path: str | Path) -> Netlist:
    """Load and fully validate a netlist document.

    Raises:
        NetlistValidationError: On format mismatch or any structural
            problem, listing every violation found.
    """
    netlist = netlist_from_json(json.loads(Path(path).read_text()))
    validate_netlist(netlist)
    return netlist
