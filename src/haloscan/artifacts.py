"""On-disk artifacts: the versioned array format, JSON records and atomic writes.

Spectra (``.spec``) and grand spectra (``.dat``) share one binary layout:

    haloscan-<kind> v2
    {"bin_width_hz":100.0,"columns":["psd"],"n_bins":30000,...}
    one .npy block per column, in the order the header lists them

The second line is a canonical JSON object (sorted keys, no whitespace).
It holds ``columns``, ``n_bins`` (the length of every column), the
container's core keys and its typed metadata, and nothing that varies
between runs (no timestamps, no paths), so a file's bytes depend on its
content only.  Each column is a 1-D little-endian float64 array written
by ``numpy.lib.format.write_array``; after the two header lines,
``numpy.load`` on the open file returns the columns one after another.

Version 1 was a text format; it is refused with a request to re-run the
stages that write it.  Every JSON input, a results file or a run record,
is read by ``read_json``.  Every writer here goes through ``atomic_open``:
the file is written as ``<path>.tmp`` and renamed over the target, so a
reader never sees a half-written artifact.
"""

from __future__ import annotations

import contextlib
import json
import os

import numpy as np

from .errors import DataError

FORMAT_VERSION = 2


@contextlib.contextmanager
def atomic_open(path, mode="w"):
    """Open ``<path>.tmp`` for writing; rename it over ``path`` on success."""
    tmp = f"{path}.tmp"
    with open(tmp, mode) as fh:
        yield fh
    os.replace(tmp, path)


def write_json(payload, path):
    with atomic_open(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path, fmt=None):
    """The JSON object in ``path``; with ``fmt``, one whose ``format`` is
    ``fmt`` and whose ``version`` is 1.  A file that cannot be read, is not
    UTF-8 JSON or holds anything else is a DataError."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise DataError(f"{path}: malformed JSON: {exc}") from exc
    record = payload if isinstance(payload, dict) else {}
    if fmt is not None and (record.get("format"), record.get("version")) != (fmt, 1):
        kind = fmt.removeprefix("haloscan-")
        article = "an" if kind[0] in "aeiou" else "a"
        raise DataError(f"{path}: not {article} {kind} result: expected a version-1 "
                        f"{fmt} object, got format {record.get('format')!r} "
                        f"version {record.get('version')!r}")
    if record is not payload:
        raise DataError(f"{path}: not a JSON object")
    return payload


def write_array_file(path, kind, core, metadata, columns):
    """Write ``columns`` (name -> 1-D array) under a header of ``core``
    plus ``metadata``; a metadata key may not shadow a core key."""
    arrays = {name: np.asarray(values, dtype=np.float64) for name, values in columns.items()}
    n_bins = next(iter(arrays.values())).size
    for name, array in arrays.items():
        if array.shape != (n_bins,):
            raise DataError(f"{kind} column {name!r} has shape {array.shape}, "
                            f"expected ({n_bins},)")
    header = dict(core, columns=list(arrays), n_bins=n_bins)
    for key, value in metadata.items():
        if key in header:
            raise DataError(f"metadata key {key!r} collides with a core header key")
        header[key] = value
    try:
        text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    except TypeError as exc:
        raise DataError(f"{kind} header holds a value JSON cannot store: {exc}") from exc
    with atomic_open(path, "wb") as fh:
        fh.write(f"haloscan-{kind} v{FORMAT_VERSION}\n{text}\n".encode())
        for array in arrays.values():
            np.lib.format.write_array(fh, array, allow_pickle=False)


def read_array_file(path, kind, core_keys, column_names):
    """Read a file written by ``write_array_file``.

    Returns ``(core, metadata, columns)``; raises DataError on any format
    problem, including a column list other than ``column_names``.
    """
    core, metadata, n_bins, offsets = read_array_head(path, kind, core_keys, column_names)
    return core, metadata, read_array_columns(path, kind, offsets, n_bins)


def read_array_head(path, kind, core_keys, column_names):
    """All of a file but its column values: ``(core, metadata, n_bins, offsets)``.

    Checks everything ``read_array_file`` checks except the values: the
    header, each column's .npy header (float64 of shape ``(n_bins,)``) and
    the file length.  ``offsets`` maps each column to the byte offset of
    its values, which ``read_array_columns`` reads.
    """
    with _open(path, kind) as fh:
        header = _read_header(fh, path, kind)
        if header.pop("columns", None) != list(column_names):
            raise DataError(f"{path}: expected columns {list(column_names)}")
        n_bins = header.pop("n_bins", None)
        missing = [key for key in core_keys if key not in header]
        if missing or not isinstance(n_bins, int):
            raise DataError(f"{path}: missing header keys {missing or ['n_bins']}")
        offsets = {}
        try:
            for name in column_names:
                shape, _, dtype = _read_npy_header(fh)
                if dtype != np.float64 or shape != (n_bins,):
                    raise DataError(f"{path}: header declares {n_bins} bins, column {name!r} "
                                    f"holds {dtype} of shape {shape}")
                offsets[name] = fh.tell()
                fh.seek(n_bins * dtype.itemsize, os.SEEK_CUR)
        except (ValueError, EOFError) as exc:
            raise DataError(f"{path}: malformed column payload: {exc}") from exc
        end, size = fh.tell(), os.fstat(fh.fileno()).st_size
    if size < end:
        raise DataError(f"{path}: malformed column payload: {size} bytes, expected {end}")
    if size > end:
        raise DataError(f"{path}: trailing bytes after the last column")
    core = {key: header.pop(key) for key in core_keys}
    return core, header, n_bins, offsets


def read_array_columns(path, kind, offsets, n_bins):
    """The values of the columns ``read_array_head`` found, name -> array."""
    columns = {}
    with _open(path, kind) as fh:
        for name, offset in offsets.items():
            fh.seek(offset)
            values = np.fromfile(fh, dtype=np.float64, count=n_bins)
            if values.size != n_bins:
                raise DataError(f"{path}: column {name!r} ends after {values.size} "
                                f"of {n_bins} values")
            columns[name] = values
    return columns


def _open(path, kind):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot open {kind} file: {exc}") from exc


_NPY_HEADER_READERS = {
    (1, 0): np.lib.format.read_array_header_1_0,
    (2, 0): np.lib.format.read_array_header_2_0,
}


def _read_npy_header(fh):
    """(shape, fortran_order, dtype) of the .npy block at the file position."""
    version = np.lib.format.read_magic(fh)
    if version not in _NPY_HEADER_READERS:
        raise ValueError(f".npy format version {version} not written here")
    return _NPY_HEADER_READERS[version](fh)


def _read_header(fh, path, kind):
    magic = fh.readline(64).decode("ascii", "replace").strip()
    name, _, version = magic.partition(" ")
    if name != f"haloscan-{kind}":
        raise DataError(f"{path}: not a {kind} file (got {magic[:40]!r})")
    if version == "v1":
        raise DataError(f"{path}: {kind} file in the retired v1 text format; "
                        f"re-run `haloscan simulate` and the later stages to rewrite it")
    if version != f"v{FORMAT_VERSION}":
        raise DataError(f"{path}: unsupported format version {version!r}")
    try:
        header = json.loads(fh.readline())
    except ValueError as exc:
        raise DataError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: malformed header: not a JSON object")
    return header
