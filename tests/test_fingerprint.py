"""The reference run's artifacts against their checked-in fingerprint.

A change that alters any artifact regenerates the fingerprint with
``tests/reference_fingerprint.py`` and records the diff in CHANGES.md.
"""

import json

import numpy as np

from reference_fingerprint import FINGERPRINT, fingerprint, mismatches


def test_reference_artifacts_match_fingerprint(reference_run):
    out, _ = reference_run
    with open(FINGERPRINT) as fh:
        recorded = json.load(fh)
    same_numpy = recorded["numpy_version"] == np.__version__
    problems = mismatches(recorded, fingerprint(out), exact_hashes=same_numpy)
    assert not problems, "\n".join(problems[:20])

