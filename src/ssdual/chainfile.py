"""Versioned JSON chain files.

A chain file stores labels, the cover relation of the poset, the kernel, the
initial distribution and optionally the stationary distribution and an
absorbing index.  Floats are serialized with Python's shortest round-trip
representation, so save/load is lossless to full double precision.  On load
the states are re-enumerated consistently if the file order is not.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import ChainSpec
from .duality import DualChain
from .errors import CycleDetected, NoAbsorbingState, ParseError, SchemaVersionMismatch
from .poset import build_poset

SCHEMA_VERSION = 1
LOAD_ROW_TOL = 1e-10


def _to_jsonable(value):
    if isinstance(value, tuple):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _from_jsonable(value):
    if isinstance(value, list):
        return tuple(_from_jsonable(v) for v in value)
    return value


@dataclass(frozen=True)
class LoadedChain:
    """Chain file contents, re-aligned to a consistent enumeration."""

    chain: ChainSpec
    absorbing_index: Optional[int]
    meta: dict

    def dual(self) -> DualChain:
        if self.absorbing_index is None:
            raise NoAbsorbingState("chain file has no absorbing_index field")
        return DualChain(
            poset=self.chain.poset,
            P_star=self.chain.P,
            nu_star=self.chain.nu,
            absorbing_index=self.absorbing_index,
        )


def save_chain(path, obj, *, meta: dict | None = None) -> None:
    """Write a ChainSpec or DualChain to a versioned JSON file."""
    if isinstance(obj, DualChain):
        poset, P, nu, pi = obj.poset, obj.P_star, obj.nu_star, None
        absorbing: Optional[int] = int(obj.absorbing_index)
    elif isinstance(obj, ChainSpec):
        poset, P, nu, pi = obj.poset, obj.P, obj.nu, obj.pi
        absorbing = None
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    doc = {
        "version": SCHEMA_VERSION,
        "labels": [_to_jsonable(lab) for lab in poset.labels],
        "covers": [[a, b] for a, b in poset.covers],
        "P": P.tolist(),
        "nu": nu.tolist(),
        "meta": meta or {},
    }
    if pi is not None:
        doc["pi"] = pi.tolist()
    if absorbing is not None:
        doc["absorbing_index"] = absorbing
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"chain file is missing the {key!r} field")
    return doc[key]


def _finite_array(path, value, key: str, shape: tuple) -> np.ndarray:
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: {key} is not a numeric array") from exc
    if a.shape != shape:
        raise ParseError(f"{path}: {key} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ParseError(f"{path}: {key} has a non-finite entry")
    return a


def _is_index(value, size: int) -> bool:
    # bool subclasses int, but JSON true/false is not an index
    return type(value) is int and 0 <= value < size


def load_chain(path) -> LoadedChain:
    """Read a chain file; validates shapes, stochasticity and acyclicity."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    version = _require(doc, "version")
    if version != SCHEMA_VERSION:
        raise SchemaVersionMismatch(f"{path}: unsupported format version {version!r}")
    labels = [_from_jsonable(lab) for lab in _require(doc, "labels")]
    size = len(labels)
    covers = _require(doc, "covers")
    for pair in covers:
        if not isinstance(pair, list) or len(pair) != 2 or not all(_is_index(v, size) for v in pair):
            raise ParseError(f"{path}: bad cover pair {pair!r}")
    try:
        poset = build_poset(labels, [(a, b) for a, b in covers])
    except CycleDetected as exc:
        raise ParseError(f"{path}: {exc}") from exc

    P = _finite_array(path, _require(doc, "P"), "P", (size, size))
    nu = _finite_array(path, _require(doc, "nu"), "nu", (size,))
    row_dev = float(np.max(np.abs(P.sum(axis=1) - 1.0))) if size else 0.0
    if row_dev > LOAD_ROW_TOL:
        raise ParseError(f"{path}: kernel rows sum to 1 only within {row_dev:.3e}")
    if P.min() < -1e-12:
        raise ParseError(f"{path}: kernel has negative entry {P.min():.3e}")
    pi = doc.get("pi")
    if pi is not None:
        pi = _finite_array(path, pi, "pi", (size,))

    perm = poset.enumeration
    P = P[np.ix_(perm, perm)]
    nu = nu[perm]
    if pi is not None:
        pi = pi[perm]
    absorbing = doc.get("absorbing_index")
    if absorbing is not None:
        if not _is_index(absorbing, size):
            raise ParseError(f"{path}: bad absorbing_index {absorbing!r}")
        absorbing = int(np.nonzero(perm == absorbing)[0][0])
    meta = doc.get("meta") or {}
    chain = ChainSpec(poset=poset, P=P, nu=nu, pi=pi)
    return LoadedChain(chain=chain, absorbing_index=absorbing, meta=meta)
