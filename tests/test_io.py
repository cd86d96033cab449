"""PLY/XYZ reading and writing."""

import hashlib
import io
import multiprocessing
import os
import struct
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pilevol import cloudio
from pilevol.cloud import _CHUNK, PointCloud
from pilevol.cloudio import (
    FORMAT_PLY_ASCII,
    FORMAT_PLY_BINARY,
    FORMAT_XYZ,
    load_cloud,
    save_cloud,
)
from pilevol.errors import (
    MalformedHeader,
    NonFiniteCoordinate,
    PilevolError,
    UnsupportedProperty,
)
from pilevol.synth import dense_compression_scene, generate_scene


def ply_bytes(encoding, count_line, extra="", body=b"", ptype="double"):
    """PLY bytes: ``extra`` header lines, then ``count_line`` and x, y, z."""
    header = (f"ply\nformat {encoding} 1.0\n{extra}{count_line}\n"
              f"property {ptype} x\nproperty {ptype} y\nproperty {ptype} z\n"
              "end_header\n")
    return header.encode("ascii") + body


def test_xyz_parse(tmp_path):
    path = tmp_path / "two.xyz"
    path.write_text("# comment line\n0 0 0\n1 2 3\n")
    cloud = load_cloud(path)
    assert len(cloud) == 2
    np.testing.assert_array_equal(cloud.xyz, [[0, 0, 0], [1, 2, 3]])


def test_ply_ascii_single_vertex(tmp_path):
    path = tmp_path / "one.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n0.5 -1.0 2.25\n"
    )
    cloud = load_cloud(path)
    assert len(cloud) == 1
    np.testing.assert_array_equal(cloud.xyz[0], [0.5, -1.0, 2.25])


def test_ply_binary_matches_ascii_float32(tmp_path):
    # the same float32 data written in both encodings loads identically
    rng = np.random.default_rng(0)
    data = rng.uniform(-10, 10, size=(1000, 3)).astype(np.float32)
    a = tmp_path / "a.ply"
    b = tmp_path / "b.ply"
    count = f"element vertex {len(data)}"
    rows = "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in data.astype(np.float64).tolist())
    a.write_bytes(ply_bytes("ascii", count, body=rows.encode("ascii"), ptype="float"))
    b.write_bytes(ply_bytes("binary_little_endian", count,
                          body=data.astype("<f4").tobytes(), ptype="float"))
    ca = load_cloud(a)
    cb = load_cloud(b)
    np.testing.assert_array_equal(ca.xyz, cb.xyz)
    np.testing.assert_array_equal(ca.xyz, data.astype(np.float64))


def test_empty_cloud_roundtrip(tmp_path):
    path = tmp_path / "empty.ply"
    save_cloud(PointCloud.empty(), path, FORMAT_PLY_ASCII)
    assert b"element vertex 0" in path.read_bytes()
    assert len(load_cloud(path)) == 0


def test_three_point_roundtrip_all_formats(tmp_path):
    cloud = PointCloud([[0.1, 0.2, 0.3], [-1, -2, -3], [10, 20, 30]])
    for fmt, name in [(FORMAT_PLY_ASCII, "a.ply"), (FORMAT_PLY_BINARY, "b.ply"),
                      (FORMAT_XYZ, "c.xyz")]:
        path = tmp_path / name
        save_cloud(cloud, path, fmt)
        assert load_cloud(path) == cloud


def test_binary_float64_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(1)
    cloud = PointCloud(rng.normal(scale=100.0, size=(10_000, 3)))
    path = tmp_path / "big.ply"
    save_cloud(cloud, path, FORMAT_PLY_BINARY)
    again = load_cloud(path)
    assert np.max(np.abs(again.xyz - cloud.xyz)) == 0.0


def _traced_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of ``fn(*args)`` above what was
    allocated before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def whole_text(xyz: np.ndarray) -> str:
    """The text writers' rows written in one piece, as they were before they
    wrote chunk by chunk."""
    return "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in xyz.tolist())


@pytest.mark.parametrize("fmt", [FORMAT_XYZ, FORMAT_PLY_ASCII])
def test_text_writers_write_chunk_by_chunk(tmp_path, fmt):
    # the rows span three chunks, the last one partial; the bytes are those
    # of the one-piece writer, and the text held in memory is one chunk's
    rng = np.random.default_rng(5)
    cloud = PointCloud(rng.normal(scale=10.0, size=(2 * _CHUNK + 7, 3)))
    path = tmp_path / ("c.xyz" if fmt == FORMAT_XYZ else "c.ply")
    header = b"" if fmt == FORMAT_XYZ else ply_bytes(
        "ascii", f"element vertex {len(cloud)}")
    whole = _traced_peak(save_cloud, cloud, path, fmt)
    assert path.read_bytes() == header + whole_text(cloud.xyz).encode("ascii")
    one_chunk = _traced_peak(save_cloud, PointCloud(cloud.xyz[:_CHUNK]), path, fmt)
    assert whole < 1.25 * one_chunk


@pytest.mark.skipif(sys.byteorder != "little",
                    reason="a big-endian host writes a little-endian copy")
def test_binary_save_makes_no_copy_of_the_payload(tmp_path):
    cloud = PointCloud(np.random.default_rng(6).normal(size=(100_000, 3)))
    path = tmp_path / "b.ply"
    peak = _traced_peak(save_cloud, cloud, path, FORMAT_PLY_BINARY)
    assert peak < 0.05 * cloud.xyz.nbytes
    assert load_cloud(path) == cloud


def test_ply_skips_extra_properties(tmp_path):
    # color columns present but unused
    path = tmp_path / "rgb.ply"
    path.write_text(
        "ply\nformat ascii 1.0\ncomment made by hand\nelement vertex 2\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n1 2 3 255 0 0\n4 5 6 0 255 0\n"
    )
    cloud = load_cloud(path)
    np.testing.assert_array_equal(cloud.xyz, [[1, 2, 3], [4, 5, 6]])


def test_ply_binary_skips_extra_properties(tmp_path):
    path = tmp_path / "mixed.ply"
    header = (
        "ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
        "property double x\nproperty double y\nproperty double z\n"
        "property uchar intensity\nend_header\n"
    ).encode("ascii")
    body = b"".join(
        struct.pack("<dddB", *row) for row in [(1, 2, 3, 7), (4, 5, 6, 9)]
    )
    path.write_bytes(header + body)
    cloud = load_cloud(path)
    np.testing.assert_array_equal(cloud.xyz, [[1, 2, 3], [4, 5, 6]])


PLY_TYPE_NAMES = {"<f8": "double", "<f4": "float", "|u1": "uchar"}
LAYOUTS = {
    "xyz-doubles": [("x", "<f8"), ("y", "<f8"), ("z", "<f8")],
    "zyx-doubles": [("z", "<f8"), ("y", "<f8"), ("x", "<f8")],
    "xyz-floats": [("x", "<f4"), ("y", "<f4"), ("z", "<f4")],
    "extra-uchar-float": [("x", "<f8"), ("red", "u1"), ("y", "<f8"),
                          ("z", "<f8"), ("w", "<f4")],
}


def binary_ply(path, layout, count, seed=0):
    """Write a binary PLY of ``count`` random rows of the ``layout`` and
    return the (count, 3) float64 x, y, z the rows hold: each column
    widened on its own, as a reader that decodes a row table does."""
    row = np.dtype(LAYOUTS[layout])
    table = np.zeros(count, dtype=row)
    rng = np.random.default_rng(seed)
    for name in row.names:
        table[name] = rng.normal(scale=50.0, size=count) if name in "xyzw" \
            else rng.integers(0, 256, size=count)
    properties = "".join(f"property {PLY_TYPE_NAMES[row[name].str]} {name}\n"
                         for name in row.names)
    path.write_bytes(
        (f"ply\nformat binary_little_endian 1.0\nelement vertex {count}\n"
         f"{properties}end_header\n").encode("ascii") + table.tobytes())
    expected = np.empty((count, 3))
    for k, name in enumerate("xyz"):
        expected[:, k] = table[name]
    return expected


@pytest.mark.parametrize("count", [0, 1, 2, 7, 10_001])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_binary_read_matches_a_row_table_decode(tmp_path, layout, count):
    # the payload is read into its final buffer with one read; an odd count
    # and an empty payload read like any other
    path = tmp_path / "cloud.ply"
    expected = binary_ply(path, layout, count)
    xyz = load_cloud(path).xyz
    assert xyz.shape == (count, 3)
    assert xyz.tobytes() == expected.tobytes()
    assert xyz.flags.owndata and xyz.flags.c_contiguous
    assert not xyz.flags.writeable


class _TruncatingOs:
    """``os`` for the reader, whose ``fstat`` cuts ``cut`` bytes off the
    file's end after it is measured, as if another process truncated the
    file between the size check and the read."""

    def __init__(self, path, cut):
        self.path, self.cut = path, cut

    def __getattr__(self, name):
        return getattr(os, name)

    def fstat(self, fd):
        stat = os.fstat(fd)
        os.truncate(self.path, stat.st_size - self.cut)
        return stat


@pytest.mark.parametrize("layout", ["xyz-doubles", "extra-uchar-float"])
@pytest.mark.parametrize("cut", [1, 400], ids=["last-byte", "last-rows"])
def test_payload_shortened_after_the_size_check_malformed(tmp_path, monkeypatch,
                                                          layout, cut):
    # 2,000 rows of 24 or 29 bytes, more than the read-ahead buffer the
    # header parse leaves, so the read reaches the cut end of the file: one
    # byte short cuts the last row, 400 bytes short the last 14 to 17 rows
    assert 2_000 * 24 > io.DEFAULT_BUFFER_SIZE
    path = tmp_path / "cloud.ply"
    binary_ply(path, layout, 2_000)
    monkeypatch.setattr(cloudio, "os", _TruncatingOs(path, cut))
    with pytest.raises(MalformedHeader, match="ended early"):
        load_cloud(path)


def _load_digest_into(conn, path):
    conn.send(hashlib.sha256(load_cloud(path).xyz.tobytes()).hexdigest())
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
@pytest.mark.parametrize("layout", ["xyz-doubles", "xyz-floats"])
def test_binary_read_in_a_forked_child(tmp_path, layout):
    # the read keeps no thread or file state between calls, so a forked
    # child reads the parent's bytes
    path = tmp_path / "cloud.ply"
    expected = binary_ply(path, layout, 5_001)
    assert load_cloud(path).xyz.tobytes() == expected.tobytes()
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_load_digest_into, args=(send, path))
    child.start()
    try:
        assert recv.poll(60), "the forked child's read did not return"
        assert recv.recv() == hashlib.sha256(expected.tobytes()).hexdigest()
        child.join(60)
        assert child.exitcode == 0, "the forked child did not exit cleanly"
    finally:
        if child.is_alive():
            child.kill()
        child.join()


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        load_cloud("/nonexistent/file.ply")


def test_malformed_headers(tmp_path):
    bad = tmp_path / "bad.ply"
    bad.write_text("not a ply\n")
    with pytest.raises(MalformedHeader):
        load_cloud(bad)

    no_vertex = tmp_path / "novert.ply"
    no_vertex.write_text("ply\nformat ascii 1.0\nend_header\n")
    with pytest.raises(MalformedHeader):
        load_cloud(no_vertex)

    missing_z = tmp_path / "noz.ply"
    missing_z.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nend_header\n1 2\n"
    )
    with pytest.raises(MalformedHeader):
        load_cloud(missing_z)

    short = tmp_path / "short.ply"
    short.write_text(
        "ply\nformat ascii 1.0\nelement vertex 5\n"
        "property float x\nproperty float y\nproperty float z\n"
        "end_header\n1 2 3\n"
    )
    with pytest.raises(MalformedHeader):
        load_cloud(short)


def test_list_property_unsupported(tmp_path):
    path = tmp_path / "list.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property float x\nproperty float y\nproperty float z\n"
        "property list uchar int vertex_indices\nend_header\n"
    )
    with pytest.raises(UnsupportedProperty):
        load_cloud(path)


def test_integer_coordinate_property_unsupported(tmp_path):
    path = tmp_path / "intx.ply"
    path.write_text(
        "ply\nformat ascii 1.0\nelement vertex 1\n"
        "property int x\nproperty float y\nproperty float z\n"
        "end_header\n1 2 3\n"
    )
    with pytest.raises(UnsupportedProperty):
        load_cloud(path)


def test_non_finite_coordinate_reports_row(tmp_path):
    path = tmp_path / "nan.xyz"
    path.write_text("0 0 0\n1 1 1\nnan 2 2\n")
    with pytest.raises(NonFiniteCoordinate) as err:
        load_cloud(path)
    assert err.value.row == 2


def test_binary_float32_signalling_nan_is_non_finite(tmp_path):
    # 0x7F810000 is a float32 signalling NaN: widening it to float64 raises
    # the invalid flag, which must not escape as a RuntimeWarning
    path = tmp_path / "snan.ply"
    body = struct.pack("<fff", 0.0, 1.0, 2.0) + struct.pack("<Iff", 0x7F810000, 1.0, 2.0)
    path.write_bytes(ply_bytes("binary_little_endian", "element vertex 2",
                               body=body, ptype="float"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteCoordinate) as err:
            load_cloud(path)
    assert err.value.row == 1


def test_format_detection(tmp_path):
    cloud = PointCloud([[1.5, 2.5, 3.5]])
    binary = tmp_path / "auto.ply"
    save_cloud(cloud, binary, FORMAT_PLY_BINARY)
    assert load_cloud(binary) == cloud       # inferred from header
    text = tmp_path / "auto.xyz"
    save_cloud(cloud, text, FORMAT_XYZ)
    assert load_cloud(text) == cloud


def test_ascii_ply_whose_comment_names_binary_loads(tmp_path):
    # the format line alone names the encoding
    path = tmp_path / "commented.ply"
    path.write_text(
        "ply\nformat ascii 1.0\ncomment converted from binary_little_endian\n"
        "element vertex 1\nproperty double x\nproperty double y\n"
        "property double z\nend_header\n1 2 3\n"
    )
    np.testing.assert_array_equal(load_cloud(path).xyz, [[1, 2, 3]])


@pytest.mark.parametrize("encoding, body", [
    ("ascii", b"99\n1 2 3\n4 5 6\n"),
    ("binary_little_endian", struct.pack("<i6d", 99, 1, 2, 3, 4, 5, 6)),
], ids=["ascii", "binary"])
def test_element_before_vertex_unsupported(tmp_path, encoding, body):
    # the vertex rows would be read from the other element's bytes
    path = tmp_path / "first.ply"
    path.write_bytes(ply_bytes(encoding, "element vertex 2",
                             "element marker 1\nproperty int id\n", body))
    with pytest.raises(UnsupportedProperty):
        load_cloud(path)


@pytest.mark.parametrize("encoding, body", [
    ("ascii", b"1 2 3\n4 5 6\n7 8 9\n"),
    ("binary_little_endian", struct.pack("<9d", *range(1, 10))),
], ids=["ascii", "binary"])
def test_second_vertex_element_malformed(tmp_path, encoding, body):
    # read as one element, the binary rows came back as one point of three
    path = tmp_path / "twice.ply"
    path.write_bytes(ply_bytes(encoding, "element vertex 1",
                               "element vertex 2\nproperty double x\n"
                               "property double y\nproperty double z\n", body))
    with pytest.raises(MalformedHeader, match="second vertex element"):
        load_cloud(path)


@pytest.mark.parametrize("encoding", ["ascii", "binary_little_endian"])
def test_negative_vertex_count_malformed(tmp_path, encoding):
    path = tmp_path / "negative.ply"
    path.write_bytes(ply_bytes(encoding, "element vertex -2"))
    with pytest.raises(MalformedHeader):
        load_cloud(path)


def test_blank_ascii_vertex_row_malformed(tmp_path):
    # a blank line is no vertex row, though the parser skips it
    path = tmp_path / "blank.ply"
    path.write_bytes(ply_bytes("ascii", "element vertex 2", body=b"1 2 3\n\n4 5 6\n"))
    with pytest.raises(MalformedHeader):
        load_cloud(path)


def test_bare_property_line_malformed(tmp_path):
    path = tmp_path / "bare.ply"
    path.write_bytes(ply_bytes("ascii", "element vertex 1\nproperty",
                             body=b"1 2 3\n"))
    with pytest.raises(MalformedHeader):
        load_cloud(path)


@pytest.mark.parametrize("encoding, body", [
    ("ascii", b"1 2 3\n"),
    ("binary_little_endian", struct.pack("<3d", 1, 2, 3)),
], ids=["ascii", "binary"])
def test_huge_vertex_count_malformed(tmp_path, encoding, body):
    # the declared count is checked against the file before any allocation
    path = tmp_path / "huge.ply"
    path.write_bytes(ply_bytes(encoding, "element vertex 1000000000000", body=body))
    with pytest.raises(MalformedHeader):
        load_cloud(path)


def test_binary_read_golden(tmp_path):
    # the 104,000-point cloud of the first voxel-band benchmark capture at
    # seed 1, as double properties and as float ones beside colour bytes;
    # the hashes were taken from the version that decoded a bytes copy
    xyz = generate_scene(replace(dense_compression_scene(), seed=2816247519)).cloud.xyz
    doubles = tmp_path / "doubles.ply"
    save_cloud(PointCloud(xyz), doubles, FORMAT_PLY_BINARY)
    row = np.dtype([("x", "<f4"), ("y", "<f4"), ("red", "u1"), ("z", "<f4"),
                    ("green", "u1")])
    table = np.zeros(len(xyz), dtype=row)
    for k, name in enumerate("xyz"):
        table[name] = xyz[:, k]
    floats = tmp_path / "floats.ply"
    floats.write_bytes(
        (f"ply\nformat binary_little_endian 1.0\nelement vertex {len(xyz)}\n"
         "property float x\nproperty float y\nproperty uchar red\n"
         "property float z\nproperty uchar green\nend_header\n").encode("ascii")
        + table.tobytes())
    for path, digest in [
        (doubles, "b31512f991bf377f8a855de3c771223430fa6f004ba5d539bf09d22aa892b279"),
        (floats, "e92ca2e1d294384f7c6309bb751c79b45e982b9bddaee6ce7e3a03ee22d1a4aa"),
    ]:
        assert hashlib.sha256(load_cloud(path).xyz.tobytes()).hexdigest() == digest


# PLY files drawn mostly well formed, with one fault at a time: a bad
# format, count or property line, a list or unknown property type, a face
# element ahead of the vertices, a second vertex element, a missing line,
# and payloads that are truncated or too long
PROPERTY_BYTES = {"char": 1, "uchar": 1, "int8": 1, "uint8": 1, "short": 2,
                  "ushort": 2, "int": 4, "uint": 4, "float": 4, "float32": 4,
                  "double": 8, "float64": 8}
GOOD_FORMATS = ["ascii", "binary_little_endian"]
GOOD_COUNTS = ["0", "1", "2", "3", "5"]
XYZ_FLOATS = ["float x", "float y", "float z"]

formats = st.sampled_from(GOOD_FORMATS * 4 + ["binary_big_endian", "", "utf8"])
counts = st.sampled_from(GOOD_COUNTS * 2 + ["-1", "10000000000", "two", "2 3", ""])
vertex_properties = st.one_of(
    st.just(XYZ_FLOATS),
    st.just(["double x", "double y", "double z", "uchar red"]),
    st.just(["uchar red", "float32 x", "float64 y", "short s", "float z"]),
    st.permutations(XYZ_FLOATS + ["int i", "ushort u", "int8 c"]),
    st.lists(st.sampled_from(["float x", "double y", "float z", "int x", "half y",
                              "string z", "list uchar int vertex_indices", "float",
                              "uint8 red"]), max_size=6),
)
ascii_tokens = st.sampled_from(["0", "1.5", "-2", "255", "7e-3"] * 4
                               + ["1e400", "nan", "x", "", "\xff"])


def fuzzed_ply(data, format_names=formats) -> bytes:
    fmt = data.draw(format_names)
    count = data.draw(counts)
    props = data.draw(vertex_properties)
    vertex = [f"element vertex {count}".rstrip()] + [f"property {p}" for p in props]
    blocks = [[f"format {fmt} 1.0"], vertex]
    if data.draw(st.integers(0, 5)) == 0:
        face = ["element face 1", "property list uchar int vertex_indices"]
        blocks.insert(data.draw(st.sampled_from([1, 2])), face)
    if data.draw(st.integers(0, 9)) == 0:
        blocks.append(vertex)
    if data.draw(st.integers(0, 7)) == 0:
        del blocks[data.draw(st.integers(0, len(blocks) - 1))]
    lines = ["ply", "comment fuzzed"] + [line for block in blocks for line in block]
    if data.draw(st.integers(0, 9)):
        lines.append("end_header")
    header = ("\n".join(lines) + "\n").encode("ascii")
    # a huge count gets a few rows, which fall short of it
    n = min(int(count), 6) if count.isdigit() else 3
    if fmt == "ascii":
        # about the declared rows of about the declared width
        n_rows = max(n + data.draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
        width = max(len(props) + data.draw(st.sampled_from([0, 0, 0, -1, 1])), 0)
        rows = data.draw(st.lists(st.lists(ascii_tokens, min_size=width, max_size=width),
                                  min_size=n_rows, max_size=n_rows))
        return header + "".join(" ".join(row) + "\n" for row in rows).encode()
    # the size the vertex rows take, then exact, a byte short or long, or
    # any short byte string
    size = n * sum(PROPERTY_BYTES.get(p.split()[0], 0) for p in props)
    if size > 512 or data.draw(st.integers(0, 3)) == 0:
        return header + data.draw(st.binary(max_size=64))
    size = max(size + data.draw(st.sampled_from([0, 0, -1, 1])), 0)
    return header + data.draw(st.binary(min_size=size, max_size=size))


def test_blank_ascii_vertex_row_malformed_without_a_warning(tmp_path):
    # a draw of the fuzz test below: one vertex, whose row is only spaces;
    # loadtxt warns that it found no data before the reader rejects the row
    path = tmp_path / "blank.ply"
    path.write_bytes(ply_bytes("ascii", "element vertex 1", body=b"  \n",
                               ptype="float"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(MalformedHeader):
            load_cloud(path)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fuzzed_ply_loads_or_raises_pilevol_error(tmp_path_factory, data):
    # any header or payload either reads as a cloud or fails with a typed
    # error; a bare ValueError, IndexError, MemoryError or numpy warning
    # from inside the reader fails the test
    path = tmp_path_factory.mktemp("fuzz") / "fuzzed.ply"
    path.write_bytes(fuzzed_ply(data))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cloud = load_cloud(path)
        except PilevolError:
            return
    assert cloud.xyz.shape == (len(cloud), 3)
