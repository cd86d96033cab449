"""PLY/XYZ reading and writing."""

import struct

import numpy as np
import pytest

from pilevol.cloud import PointCloud
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
    UnsupportedProperty,
)


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
