"""Cloud file I/O: PLY (ascii and binary little-endian) and XYZ text.

The file suffix picks the reader (``.ply`` is PLY, anything else XYZ
text), and a PLY file's ``format`` header line alone picks the decoder.
Only the x, y, z vertex properties are read, as float or double; color,
normal, and other scalar properties are skipped.  The volume method is
geometry-only, so RGB attributes are deliberately never surfaced.  Files
are written as float64.

A binary payload is size-checked against the header, then read with one
``readinto``.  A vertex row of three doubles x, y, z is read straight into
the cloud's (N, 3) array; any other row is read into a row table whose x,
y, z columns are then widened to float64.
"""

from __future__ import annotations

import itertools
import os
import warnings
from pathlib import Path

import numpy as np

from .cloud import PointCloud, _chunks
from .errors import InvalidParameter, MalformedHeader, UnsupportedProperty, check_number

FORMAT_PLY_ASCII = "ply-ascii"
FORMAT_PLY_BINARY = "ply-binary-le"
FORMAT_XYZ = "xyz"

_PLY_ENCODINGS = {"ascii": FORMAT_PLY_ASCII,
                  "binary_little_endian": FORMAT_PLY_BINARY}
# PLY scalar property type -> little-endian numpy type
_PLY_SCALAR_TYPES = {
    "char": "<i1", "int8": "<i1",
    "uchar": "<u1", "uint8": "<u1",
    "short": "<i2", "int16": "<i2",
    "ushort": "<u2", "uint16": "<u2",
    "int": "<i4", "int32": "<i4",
    "uint": "<u4", "uint32": "<u4",
    "float": "<f4", "float32": "<f4",
    "double": "<f8", "float64": "<f8",
}
_FLOAT_TYPES = {"float", "float32", "double", "float64"}
# a vertex row of three native doubles, x, y and z in that order
_XYZ_DOUBLES = np.dtype([("p0", np.float64), ("p1", np.float64),
                         ("p2", np.float64)])


def load_cloud(path) -> PointCloud:
    """Load a point cloud, rejecting non-finite coordinates.

    A ``.ply`` suffix (any case) reads PLY, whose header names its
    encoding; any other suffix reads XYZ text.

    Raises:
        FileNotFoundError, MalformedHeader, UnsupportedProperty,
        NonFiniteCoordinate (with the offending point row).
    """
    path = Path(path)
    if path.suffix.lower() == ".ply":
        return _load_ply(path)
    return _load_xyz(path)


def save_cloud(cloud: PointCloud, path, format: str = FORMAT_PLY_BINARY) -> None:
    """Write a cloud as float64, so coordinates round-trip exactly.

    ``format`` is one of "ply-ascii", "ply-binary-le", "xyz".
    """
    path = Path(path)
    if format == FORMAT_XYZ:
        with open(path, "wb") as fh:
            _write_text_rows(fh, cloud.xyz)
    elif format in (FORMAT_PLY_ASCII, FORMAT_PLY_BINARY):
        _save_ply(cloud, path, format)
    else:
        raise InvalidParameter(f"unknown cloud format {format!r}")


def _write_text_rows(fh, xyz: np.ndarray) -> None:
    """Write each row of ``xyz`` to the binary file ``fh`` as an "x y z"
    line of shortest round-trip reprs, ``_CHUNK`` rows at a time, so the
    text in memory is one chunk's."""
    for rows in _chunks(len(xyz)):
        fh.write("".join(f"{x!r} {y!r} {z!r}\n"
                         for x, y, z in xyz[rows].tolist()).encode("ascii"))


def _load_xyz(path: Path) -> PointCloud:
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise MalformedHeader(f"XYZ file is not text: {exc}") from exc
    return PointCloud(_parse_rows(text.split("\n"), "XYZ text", comments="#",
                                  usecols=(0, 1, 2)))


def _parse_rows(lines, what: str, **kwargs) -> np.ndarray:
    """``np.loadtxt`` of the text ``lines`` as a float64 table of at least two
    dimensions.  No data rows give an empty table, not a warning; a row
    that does not parse is a ``MalformedHeader`` naming ``what``."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            return np.loadtxt(lines, dtype=np.float64, ndmin=2, **kwargs)
    except ValueError as exc:
        raise MalformedHeader(f"unparseable {what}: {exc}") from exc


def _parse_ply_header(fh) -> tuple[str, int, list[str], list[int]]:
    """Return (format, vertex count, vertex property types, columns of x,
    y, z) from an open binary file whose first element is ``vertex``.

    The file position is left at the first byte after "end_header".
    """
    if fh.readline().strip() != b"ply":
        raise MalformedHeader("file does not start with 'ply'")
    fmt = None
    vertex_count = None
    first_element = None
    names: list[str] = []
    types: list[str] = []
    in_vertex_element = False
    while True:
        raw = fh.readline()
        if not raw:
            raise MalformedHeader("header ended before 'end_header'")
        line = raw.decode("ascii", errors="replace").strip()
        if not line or line.startswith("comment") or line.startswith("obj_info"):
            continue
        if line == "end_header":
            break
        fields = line.split()
        if fields[0] == "format":
            encoding = fields[1] if len(fields) > 1 else ""
            if encoding not in _PLY_ENCODINGS:
                raise MalformedHeader(f"unsupported PLY encoding {encoding!r}")
            fmt = _PLY_ENCODINGS[encoding]
        elif fields[0] == "element":
            if len(fields) != 3:
                raise MalformedHeader(f"bad element line: {line!r}")
            first_element = first_element or fields[1]
            in_vertex_element = fields[1] == "vertex"
            if in_vertex_element:
                if vertex_count is not None:
                    # its properties would be read as more columns of the
                    # first element's rows
                    raise MalformedHeader("PLY header has a second vertex element")
                try:
                    vertex_count = int(fields[2])
                except ValueError as exc:
                    raise MalformedHeader(f"bad vertex count: {fields[2]!r}") from exc
                check_number("vertex count", vertex_count, 0, integer=True, lo_open=False,
                             error=MalformedHeader)
        elif fields[0] == "property" and in_vertex_element:
            if fields[1:2] == ["list"]:
                raise UnsupportedProperty("list property in vertex element")
            if len(fields) != 3:
                raise MalformedHeader(f"bad property line: {line!r}")
            if fields[1] not in _PLY_SCALAR_TYPES:
                raise UnsupportedProperty(f"unknown property type {fields[1]!r}")
            types.append(fields[1])
            names.append(fields[2])
    if fmt is None:
        raise MalformedHeader("PLY header has no format line")
    if vertex_count is None:
        raise MalformedHeader("PLY header has no vertex element")
    if first_element != "vertex":
        raise UnsupportedProperty(f"element {first_element!r} precedes vertex; "
                                  "only a leading vertex element can be read")
    for coord in ("x", "y", "z"):
        if coord not in names:
            raise MalformedHeader(f"vertex element lacks property {coord!r}")
        if types[names.index(coord)] not in _FLOAT_TYPES:
            raise UnsupportedProperty(f"property {coord!r} is not a float type")
    return fmt, vertex_count, types, [names.index(c) for c in ("x", "y", "z")]


def _load_ply(path: Path) -> PointCloud:
    with open(path, "rb") as fh:
        fmt, count, types, cols = _parse_ply_header(fh)
        if fmt == FORMAT_PLY_ASCII:
            return PointCloud(_read_ascii_vertices(fh, count, len(types))[:, cols])
        row = np.dtype([(f"p{i}", _PLY_SCALAR_TYPES[ptype])
                        for i, ptype in enumerate(types)])
        size = count * row.itemsize
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if size > left:
            raise MalformedHeader(
                f"binary payload too short: expected {size} bytes, got {left}")
        if cols == [0, 1, 2] and row == _XYZ_DOUBLES:
            # the rows are the (N, 3) array itself
            xyz = np.empty((count, 3))
            _read_payload(fh, xyz)
            return PointCloud._own(xyz, validate=True)
        table = np.empty(count, dtype=row)
        _read_payload(fh, table)
    xyz = np.empty((count, 3))
    # a float32 signalling NaN warns as it widens; it arrives as a quiet
    # NaN, which PointCloud rejects as NonFiniteCoordinate
    with np.errstate(invalid="ignore"):
        for k, i in enumerate(cols):
            xyz[:, k] = table[f"p{i}"]
    return PointCloud._own(xyz, validate=True)


def _read_payload(fh, out: np.ndarray) -> None:
    """Fill the C-contiguous ``out`` with the size-checked payload that
    follows the header in the open ``fh``; a file that ends early after all
    raises ``MalformedHeader``."""
    payload = out.reshape(-1).view(np.uint8)
    got = fh.readinto(payload)
    if got != len(payload):
        raise MalformedHeader(f"binary payload ended early: expected "
                              f"{len(payload)} bytes, read {got}")


def _read_ascii_vertices(fh, count: int, width: int) -> np.ndarray:
    """The ``count`` vertex rows after the header as a (count, width) table.

    Only lines that are present are read, so a false ``count`` allocates
    nothing beyond the file's own size.
    """
    if count == 0:
        return np.empty((0, width))
    lines = list(itertools.islice(fh, count))
    if len(lines) < count:
        raise MalformedHeader(f"expected {count} vertices, file ended at {len(lines)}")
    table = _parse_rows(lines, "vertex rows", comments=None)
    if table.shape != (count, width):
        raise MalformedHeader(
            f"expected {count} vertex rows of {width} values, got shape {table.shape}")
    return table


def _save_ply(cloud: PointCloud, path: Path, fmt: str) -> None:
    encoding = "ascii" if fmt == FORMAT_PLY_ASCII else "binary_little_endian"
    header = (f"ply\nformat {encoding} 1.0\nelement vertex {len(cloud)}\n"
              "property double x\nproperty double y\nproperty double z\n"
              "end_header\n")
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if fmt == FORMAT_PLY_ASCII:
            _write_text_rows(fh, cloud.xyz)
        else:
            # the cloud's own buffer: a copy only on a big-endian host
            fh.write(memoryview(np.ascontiguousarray(cloud.xyz, dtype="<f8")))
