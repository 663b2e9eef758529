"""The artifacts of the reference and ensemble runs against their checked-in fingerprints.

A change that alters any artifact regenerates the fingerprint with
``tests/reference_fingerprint.py`` and records the diff in CHANGES.md.
"""

import json

import numpy as np
import pytest

from reference_fingerprint import CONFIGS, fingerprint, fingerprint_path, mismatches


@pytest.mark.parametrize("name", CONFIGS)
def test_artifacts_match_fingerprint(name, request):
    out, _ = request.getfixturevalue(f"{name}_run")
    with open(fingerprint_path(name)) as fh:
        recorded = json.load(fh)
    same_numpy = recorded["numpy_version"] == np.__version__
    problems = mismatches(recorded, fingerprint(out), exact_hashes=same_numpy)
    assert not problems, "\n".join(problems[:20])
