import json
import os
import time

import numpy as np
import pytest

from haloscan import (
    LineshapeParams,
    ReceiverParams,
    make_baseline_model,
    make_tuning_plan,
    thermal_quanta,
)
from haloscan.cli import main

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")
REFERENCE_INI = os.path.join(CONFIG_DIR, "reference.ini")

REF_NU = 4.14e9
REF_KAPPA_L = 88.1e3


@pytest.fixture(scope="session")
def reference_run(tmp_path_factory):
    """(output directory, seconds) of one ``haloscan all`` on configs/reference.ini,
    shared by the acceptance criteria and the fingerprint test; read it, never write."""
    out = tmp_path_factory.mktemp("reference_out")
    t0 = time.monotonic()
    rc = main(["all", "--config", REFERENCE_INI, "--out", str(out), "--threads", "4"])
    elapsed = time.monotonic() - t0
    assert rc == 0
    return out, elapsed


@pytest.fixture(scope="session")
def ensemble_run(tmp_path_factory):
    """(output directory, seconds) of one ``haloscan all`` on configs/ensemble.ini,
    as ``reference_run``; read it, never write."""
    out = tmp_path_factory.mktemp("ensemble_out")
    ini = os.path.join(CONFIG_DIR, "ensemble.ini")
    t0 = time.monotonic()
    rc = main(["all", "--config", ini, "--out", str(out), "--threads", "2"])
    elapsed = time.monotonic() - t0
    assert rc == 0
    return out, elapsed


@pytest.fixture(scope="session")
def ref_receiver():
    """Squeezed operating point used throughout: eta=2/3, G_s=0.10 so the
    delivered factor is exactly 0.400."""
    return ReceiverParams(
        nu_c=REF_NU,
        kappa_l=REF_KAPPA_L,
        beta=7.1,
        n_c0=0.41,
        n_f=thermal_quanta(REF_NU, 0.061),
        eta=2.0 / 3.0,
        g_s=0.10,
        n_a=0.03,
    )


@pytest.fixture(scope="session")
def unsqueezed_receiver(ref_receiver):
    import dataclasses

    return dataclasses.replace(ref_receiver, g_s=1.0, beta=2.8)


@pytest.fixture(scope="session")
def default_lineshape():
    return LineshapeParams()


@pytest.fixture
def small_plan():
    """9 steps, 85 kHz apart, centered near the reference frequency."""
    return make_tuning_plan(4.1396e9, 4.14028e9, 85e3, master_seed=77)


@pytest.fixture
def flat_baseline():
    return make_baseline_model(77, excursion=0.0, step_excursion=0.0)


@pytest.fixture
def wavy_baseline():
    return make_baseline_model(77, n_components=(3, 5), excursion=0.30)


def make_receiver(**overrides):
    base = dict(
        nu_c=REF_NU,
        kappa_l=REF_KAPPA_L,
        beta=7.1,
        n_c0=0.41,
        n_f=thermal_quanta(REF_NU, 0.061),
        eta=2.0 / 3.0,
        g_s=0.10,
        n_a=0.03,
    )
    base.update(overrides)
    return ReceiverParams(**base)


def rng_array(seed, n):
    return np.random.default_rng(seed).standard_normal(n)


def split_array_file(path):
    """(magic line, header dict, column payload) of a versioned array file."""
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    return magic, json.loads(header), payload


def join_array_file(path, magic, header, payload):
    path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + payload)
