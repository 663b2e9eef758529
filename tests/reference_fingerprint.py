"""Fingerprints of the artifacts of a config's run, and the script that records them.

For every file ``haloscan all --config configs/<name>.ini`` writes,
except ``sidecar.json``, the fingerprint holds the relative path and the
sha256.  Numeric artifacts (``.spec``, ``.dat`` and ``.csv``) also hold
their column names and, per column, exact float summaries over the
finite values: sum, min, max, the count of non-finite values and the
value at index n // 3.  The numpy version the file was recorded under is
stored with it: under that version every sha256 must match; under
another, the summaries must match to 1e-12 relative.

Two configs are fingerprinted, each in ``tests/data/<name>_fingerprint.json``:
``reference`` (the default) and ``ensemble``.  Regenerate after a change
that alters any artifact, and paste the diff of the fingerprint file into
CHANGES.md:

    PYTHONPATH=src python3 tests/reference_fingerprint.py [reference|ensemble]
"""

import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = ("reference", "ensemble")
REL_TOL = 1e-12


def config_path(name):
    return os.path.join(HERE, os.pardir, "configs", f"{name}.ini")


def fingerprint_path(name):
    return os.path.join(HERE, "data", f"{name}_fingerprint.json")


def _array_columns(path):
    """Column name -> array of a versioned array file (``.spec``, ``.dat``)."""
    with open(path, "rb") as fh:
        fh.readline()
        names = json.loads(fh.readline())["columns"]
        return {name: np.lib.format.read_array(fh, allow_pickle=False) for name in names}


def _csv_columns(path):
    with open(path) as fh:
        names = fh.readline().strip().split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {name: table[:, k] for k, name in enumerate(names)}


def _summary(values):
    finite = values[np.isfinite(values)]
    index = values.size // 3
    return {
        "n": int(values.size),
        "n_nonfinite": int(values.size - finite.size),
        "sum": float(np.sum(finite)),
        "min": float(np.min(finite)) if finite.size else None,
        "max": float(np.max(finite)) if finite.size else None,
        "index": index,
        "value": float(values[index]),
    }


def fingerprint(root):
    """{relative path: {"sha256", and for numeric files "columns"}} of a run."""
    out = {}
    for directory, _, files in os.walk(root):
        for name in files:
            path = os.path.join(directory, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            if rel == "sidecar.json":
                continue
            with open(path, "rb") as fh:
                entry = {"sha256": hashlib.sha256(fh.read()).hexdigest()}
            ext = os.path.splitext(name)[1]
            if ext in (".spec", ".dat"):
                columns = _array_columns(path)
            elif ext == ".csv":
                columns = _csv_columns(path)
            else:
                columns = None
            if columns is not None:
                entry["columns"] = [
                    dict(_summary(np.asarray(values, dtype=float)), name=col)
                    for col, values in columns.items()
                ]
            out[rel] = entry
    return {"numpy_version": np.__version__, "artifacts": dict(sorted(out.items()))}


def mismatches(recorded, actual, exact_hashes):
    """Human-readable differences between two fingerprints; [] when they agree.

    Every file must be present in both.  Floats in the summaries must agree
    to REL_TOL; every other field exactly, the sha256 only when
    ``exact_hashes``.
    """
    problems = []
    want, got = recorded["artifacts"], actual["artifacts"]
    for rel in sorted(set(want) ^ set(got)):
        problems.append(f"{rel}: {'missing' if rel in want else 'not in the fingerprint'}")
    for rel in sorted(set(want) & set(got)):
        if exact_hashes and want[rel]["sha256"] != got[rel]["sha256"]:
            problems.append(f"{rel}: sha256 differs")
        problems += [f"{rel}: {p}" for p in _diff(want[rel].get("columns"),
                                                  got[rel].get("columns"))]
    return problems


def _diff(want, got, where="columns"):
    if isinstance(want, float) and isinstance(got, float):
        ok = math.isclose(want, got, rel_tol=REL_TOL, abs_tol=0.0) or (
            math.isnan(want) and math.isnan(got))
        return [] if ok else [f"{where}: {got!r} != recorded {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(want) != set(got):
            return [f"{where}: keys {sorted(got)} != recorded {sorted(want)}"]
        return [p for key in sorted(want) for p in _diff(want[key], got[key], f"{where}.{key}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(want) != len(got):
            return [f"{where}: {len(got)} entries != recorded {len(want)}"]
        return [p for k, (a, b) in enumerate(zip(want, got)) for p in _diff(a, b, f"{where}[{k}]")]
    return [] if want == got and type(want) is type(got) else [
        f"{where}: {got!r} != recorded {want!r}"]


def main(argv):
    from haloscan.cli import main as haloscan

    name = argv[0] if argv else "reference"
    if len(argv) > 1 or name not in CONFIGS:
        sys.exit(f"usage: reference_fingerprint.py [{'|'.join(CONFIGS)}]")
    with tempfile.TemporaryDirectory() as out:
        if haloscan(["all", "--config", config_path(name), "--out", out]) != 0:
            sys.exit(f"haloscan all failed on configs/{name}.ini")
        record = fingerprint(out)
    path = fingerprint_path(name)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(record['artifacts'])} artifacts to {path}")


if __name__ == "__main__":
    main(sys.argv[1:])
