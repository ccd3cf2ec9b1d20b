"""Versioned JSON chain files.

A chain file stores labels, the cover relation of the poset, the kernel, the
initial distribution and optionally the stationary distribution and an
absorbing index, as compact JSON with sorted keys.  Floats are serialized
with Python's shortest round-trip representation, so save/load is lossless to
full double precision.  On load the states are re-enumerated consistently if
the file order is not.

Version 2 (written) stores the kernel in compressed sparse rows: ``P_indptr``
(M + 1 row offsets), ``P_indices`` (column of each stored entry, ascending
within a row) and ``P_data`` (its value).  Only nonzero entries are stored,
so an entry of ``-0.0`` is dropped and loads as ``+0.0``.  Version 1 (still
read, compact or indented) stores the dense kernel as the nested list ``P``.
Both load into the same dense in-memory kernel.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import DEBRIS_TOL, ROW_TOL, STATIONARY_TOL, ChainSpec
from .duality import DualChain
from .errors import (
    BadParameters,
    CycleDetected,
    NoAbsorbingState,
    ParseError,
    SchemaVersionMismatch,
)
from .poset import build_poset

SCHEMA_VERSION = 2
_NUMBER = {int, float}  # json.load types of a number; bool is neither


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
        # load_chain admits entries down to -DEBRIS_TOL; like build_dual,
        # treat those as rounding debris, since DualChain rejects negatives.
        return DualChain(
            poset=self.chain.poset,
            P_star=np.maximum(self.chain.P, 0.0),
            nu_star=np.maximum(self.chain.nu, 0.0),
            absorbing_index=self.absorbing_index,
        )


def _write_csr(fh, P: np.ndarray) -> None:
    # The P_data, P_indices and P_indptr members, one kernel row at a time.
    indptr = [0]
    for key in ("P_data", "P_indices"):
        fh.write(f'"{key}": [')
        sep = ""
        for row in P:
            cols = np.flatnonzero(row)
            if cols.size:
                fh.write(sep + json.dumps((row[cols] if key == "P_data" else cols).tolist())[1:-1])
                sep = ", "
            if key == "P_indices":
                indptr.append(indptr[-1] + cols.size)
        fh.write("], ")
    fh.write(f'"P_indptr": {json.dumps(indptr)}, ')


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
        "nu": nu.tolist(),
        "meta": meta or {},
    }
    if pi is not None:
        doc["pi"] = pi.tolist()
    if absorbing is not None:
        doc["absorbing_index"] = absorbing
    # The file is json.dumps({"P_data": ..., "P_indices": ..., "P_indptr": ...,
    # **doc}, sort_keys=True) + "\n" (the P_ keys sort first, in this order:
    # uppercase before lowercase), streamed so that no M*M temporary and no
    # list of all stored entries is built.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{")
        _write_csr(fh, P)
        fh.write(json.dumps(doc, sort_keys=True)[1:] + "\n")


def _require(doc: dict, key: str):
    if key not in doc:
        raise ParseError(f"chain file is missing the {key!r} field")
    return doc[key]


def _finite_array(path, value, key: str, shape: tuple) -> np.ndarray:
    rows = value if len(shape) == 2 and isinstance(value, list) else [value]
    # np.asarray would silently take true as 1.0 and "0.5" as 0.5
    if not all(isinstance(row, list) and set(map(type, row)) <= _NUMBER for row in rows):
        raise ParseError(f"{path}: {key} is not a numeric array")
    try:
        a = np.asarray(value, dtype=float)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {key} is not a numeric array") from exc
    if a.shape != shape:
        raise ParseError(f"{path}: {key} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ParseError(f"{path}: {key} has a non-finite entry")
    return a


def _index_array(path, value, key: str, stop: int) -> np.ndarray:
    # bool subclasses int, but JSON true/false is not an index
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise ParseError(f"{path}: {key} must be a list of integers")
    if value and not (min(value) >= 0 and max(value) < stop):
        raise ParseError(f"{path}: {key} has an entry outside [0, {stop})")
    return np.array(value, dtype=np.int64)


def _distribution(path, value, key: str, size: int) -> np.ndarray:
    a = _finite_array(path, value, key, (size,))
    if a.min() < -DEBRIS_TOL:
        raise ParseError(f"{path}: {key} has negative entry {a.min():.3e}")
    dev = abs(float(a.sum()) - 1.0)
    if dev > ROW_TOL:
        raise ParseError(f"{path}: {key} sums to 1 only within {dev:.3e}")
    return a


def _is_index(value, size: int) -> bool:
    # bool subclasses int, but JSON true/false is not an index
    return type(value) is int and 0 <= value < size


def _kernel(path, doc: dict, version: int, rank: np.ndarray) -> np.ndarray:
    """The kernel in internal order: file state s becomes state rank[s]."""
    size = rank.size
    P = np.zeros((size, size))
    if version == 1:
        P[np.ix_(rank, rank)] = _finite_array(path, _require(doc, "P"), "P", (size, size))
        return P
    indices = _index_array(path, _require(doc, "P_indices"), "P_indices", size)
    nnz = indices.size
    indptr = _index_array(path, _require(doc, "P_indptr"), "P_indptr", nnz + 1)
    if indptr.size != size + 1 or indptr[0] != 0 or indptr[-1] != nnz:
        raise ParseError(
            f"{path}: P_indptr must hold {size + 1} offsets from 0 to len(P_indices) = {nnz}"
        )
    counts = np.diff(indptr)
    if counts.min() < 0:
        raise ParseError(f"{path}: P_indptr decreases")
    data = _finite_array(path, _require(doc, "P_data"), "P_data", (nnz,))
    rows = np.repeat(np.arange(size), counts)
    flat = np.sort(rows * size + indices)
    repeated = flat[1:][flat[1:] == flat[:-1]]
    if repeated.size:
        row, col = divmod(int(repeated[0]), size)
        raise ParseError(f"{path}: P_indices repeats column {col} in row {row}")
    P[rank[rows], rank[indices]] = data
    return P


def load_chain(path) -> LoadedChain:
    """Read a chain file of version 1 or 2.

    Validates shapes, finiteness, stochasticity, acyclicity and distinct
    labels; ``nu`` and ``pi`` must be distributions and ``pi`` stationary.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level value must be an object")
    version = _require(doc, "version")
    # bool subclasses int, but JSON true is not version 1
    if type(version) is not int or version not in (1, 2):
        raise SchemaVersionMismatch(f"{path}: unsupported format version {version!r}")
    labels = _require(doc, "labels")
    if not isinstance(labels, list) or not labels:
        raise ParseError(f"{path}: labels must be a non-empty list")
    labels = [_from_jsonable(lab) for lab in labels]
    size = len(labels)
    covers = _require(doc, "covers")
    if not isinstance(covers, list):
        raise ParseError(f"{path}: covers must be a list")
    for pair in covers:
        if not isinstance(pair, list) or len(pair) != 2 or not all(_is_index(v, size) for v in pair):
            raise ParseError(f"{path}: bad cover pair {pair!r}")
    try:
        poset = build_poset(labels, [(a, b) for a, b in covers])
    except (BadParameters, CycleDetected) as exc:
        raise ParseError(f"{path}: {exc}") from exc

    perm = poset.enumeration
    rank = np.empty_like(perm)
    rank[perm] = np.arange(size)
    P = _kernel(path, doc, version, rank)
    row_dev = float(np.max(np.abs(P.sum(axis=1) - 1.0)))
    if row_dev > ROW_TOL:
        raise ParseError(f"{path}: kernel rows sum to 1 only within {row_dev:.3e}")
    if P.min() < -DEBRIS_TOL:
        raise ParseError(f"{path}: kernel has negative entry {P.min():.3e}")
    nu = _distribution(path, _require(doc, "nu"), "nu", size)[perm]
    pi = doc.get("pi")
    if pi is not None:
        pi = _distribution(path, pi, "pi", size)[perm]
        stat_dev = float(np.max(np.abs(pi @ P - pi)))
        if stat_dev > STATIONARY_TOL:
            raise ParseError(f"{path}: pi is stationary only within {stat_dev:.3e}")
    absorbing = doc.get("absorbing_index")
    if absorbing is not None:
        if not _is_index(absorbing, size):
            raise ParseError(f"{path}: bad absorbing_index {absorbing!r}")
        absorbing = int(rank[absorbing])
    meta = doc.get("meta") or {}
    chain = ChainSpec(poset=poset, P=P, nu=nu, pi=pi)
    return LoadedChain(chain=chain, absorbing_index=absorbing, meta=meta)
