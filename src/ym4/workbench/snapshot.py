"""Binary field snapshot format.

Layout (little endian), version 2:
  magic "YMF1" (4 bytes) | version u16 | group id u16 | n u32 | h f64 |
  kind u8 | component count u8 | time f64 | CRC32 of the preceding bytes u32
followed by the payload, an f64 array, site-major with index order
(x4 slowest, x3, x2, x1, form index, algebra index), and the CRC32 of the
payload bytes u32.  Nothing follows.  A file whose length is not the one
its header declares is rejected before the payload is read, as is a header
whose h is not finite and positive, and a payload that holds a NaN or an
infinity is rejected after its CRC is checked.  Version 1 files, which end
with the payload and carry no payload CRC, are still read.

The payload is written one x4 slab (one x4 index, every other index) at a
time with a running CRC32, so a write holds 1/n of the payload beyond the
field itself; the bytes are those of the whole payload written at once.  A
payload may be given as Blocks, field arrays whose components it holds one
after the other (a wave state's connection and electric field): each slab
is filled from them, so they are never stacked into one payload-sized
array.  The finiteness check also runs one x4 slab at a time.  A read still
takes the payload in one piece: reading it by slab left a larger process
peak in the CLI pipeline.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from ..algebra import LieGroupSpec, abelian, su2
from ..grid import Grid4

MAGIC = b"YMF1"
VERSION = 2

KIND_CONNECTION = 0
KIND_CURVATURE = 1
KIND_WAVE_STATE = 2
KIND_ELECTRIC = 3
KIND_SCALARSET = 4

GROUP_SU2 = 0
GROUP_ABELIAN3 = 1

_HEADER = struct.Struct("<4sHHIdBBd")


class SnapshotError(ValueError):
    pass


def group_id(spec: LieGroupSpec) -> int:
    if spec.is_su2:
        return GROUP_SU2
    if spec.dim == 3 and not np.any(spec.structure_constants):
        return GROUP_ABELIAN3
    raise SnapshotError(f"no snapshot group id registered for {spec.name!r}")


def group_from_id(gid: int) -> LieGroupSpec:
    if gid == GROUP_SU2:
        return su2()
    if gid == GROUP_ABELIAN3:
        return abelian()
    raise SnapshotError(f"unknown group id {gid}")


@dataclass
class SnapshotHeader:
    group: int
    n: int
    h: float
    kind: int
    components: int
    time: float


class Blocks(tuple):
    """Field arrays (components, n, n, n, n, d) that one payload holds one
    after the other along the component axis.  Sized like an array
    (nbytes), so code that measures a write reads both forms alike."""

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self)


def write_snapshot(path, arr, grid: Grid4, spec: LieGroupSpec, kind: int, time: float = 0.0) -> None:
    """arr: (components, n, n, n, n, d), or Blocks of such arrays; written
    with the form index moved inside the spatial indices per the declared
    payload order, one x4 slab at a time."""
    blocks = (arr,) if isinstance(arr, np.ndarray) else tuple(arr)
    for b in blocks:
        if b.ndim != 6 or b.shape[1:5] != grid.shape or b.shape[5] != spec.dim:
            raise SnapshotError(f"unexpected field shape {b.shape}")
    comps = sum(b.shape[0] for b in blocks)
    head = _HEADER.pack(MAGIC, VERSION, group_id(spec), grid.n, grid.h, kind, comps, time)
    slab = np.empty(grid.shape[1:] + (comps, spec.dim), dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(head)
        fh.write(struct.pack("<I", zlib.crc32(head) & 0xFFFFFFFF))
        crc = 0
        for i in range(grid.n):  # one x4 slab at a time
            c = 0
            for b in blocks:
                slab[..., c : c + b.shape[0], :] = np.moveaxis(b[:, i], 0, 3)
                c += b.shape[0]
            fh.write(slab)
            crc = zlib.crc32(slab, crc)
        fh.write(struct.pack("<I", crc & 0xFFFFFFFF))


def read_snapshot(path):
    """Returns (SnapshotHeader, array of shape (components, n,n,n,n, d))."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise SnapshotError("truncated header")
        magic, version, gid, n, h, kind, comps, time = _HEADER.unpack(head)
        if magic != MAGIC:
            raise SnapshotError(f"bad magic {magic!r}")
        if version not in (1, VERSION):
            raise SnapshotError(f"unsupported version {version}")
        raw_crc = fh.read(4)
        if len(raw_crc) != 4:
            raise SnapshotError("truncated header")
        (crc,) = struct.unpack("<I", raw_crc)
        if crc != (zlib.crc32(head) & 0xFFFFFFFF):
            raise SnapshotError("header checksum mismatch")
        if not (np.isfinite(h) and h > 0.0):
            raise SnapshotError(f"grid spacing h = {h} is not finite and positive")
        spec = group_from_id(gid)
        size = n**4 * comps * spec.dim * 8
        tail = 4 if version >= 2 else 0  # the payload checksum
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left < size:
            raise SnapshotError(f"truncated payload: the header declares {size} bytes, {left} follow")
        if left < size + tail:
            raise SnapshotError("truncated payload checksum")
        if left > size + tail:
            raise SnapshotError("trailing bytes after the payload")
        raw = fh.read(size)
        if tail and struct.unpack("<I", fh.read(4))[0] != (zlib.crc32(raw) & 0xFFFFFFFF):
            raise SnapshotError("payload checksum mismatch")
    data = np.frombuffer(raw, dtype="<f8").reshape((n, n, n, n, comps, spec.dim))
    for i in range(n):  # one x4 slab at a time
        if not np.isfinite(data[i]).all():
            raise SnapshotError(f"non-finite payload entry in x4 slab {i}")
    arr = np.ascontiguousarray(np.moveaxis(data, 4, 0), dtype=float)
    return SnapshotHeader(gid, n, h, kind, comps, time), arr
