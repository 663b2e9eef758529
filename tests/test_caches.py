"""The one cache helper: results frozen on the way in, every cache in one registry."""

import importlib
import pkgutil
from dataclasses import dataclass

import numpy as np
import pytest

import haloscan
from haloscan import artifacts


@dataclass(frozen=True)
class Report:
    n: int
    values: np.ndarray


@pytest.fixture
def toy(monkeypatch):
    """A frozen cache over a toy function, registered in an empty CACHES,
    with the list of arguments it was computed for."""
    monkeypatch.setattr(artifacts, "CACHES", [])
    computed = []

    @artifacts.frozen_cache(maxsize=4)
    def arrays(n):
        computed.append(n)
        return np.arange(n, dtype=float), (n, (np.ones(n), np.zeros(n))), Report(n, np.full(n, 2.0))

    return arrays, computed


def test_every_returned_array_is_read_only(toy):
    cached, _ = toy
    array, (_, (ones, zeros)), report = cached(3)
    for out in (array, ones, zeros, report.values):
        with pytest.raises(ValueError, match="read-only"):
            out[0] = 7.0


def test_hit_returns_the_same_object(toy):
    cached, computed = toy
    first = cached(3)
    assert cached(3) is first
    assert computed == [3]
    assert cached.cache_info().hits == 1


def test_cache_clear_empties_the_cache(toy):
    cached, computed = toy
    first = cached(3)
    cached.cache_clear()
    assert cached.cache_info().currsize == 0
    assert cached(3) is not first
    assert computed == [3, 3]


def test_registers_itself(toy):
    cached, _ = toy
    assert artifacts.CACHES == [cached]


def test_registry_holds_every_cache():
    """Every function with a ``cache_info`` in any haloscan module is in
    CACHES, so clearing CACHES leaves no cache warm.  ``__main__`` is not
    imported: importing it runs the CLI."""
    modules = [haloscan] + [
        importlib.import_module(f"haloscan.{info.name}")
        for info in pkgutil.iter_modules(haloscan.__path__)
        if info.name != "__main__"
    ]
    found = {value for module in modules for value in vars(module).values()
             if hasattr(value, "cache_info")}
    assert found == set(artifacts.CACHES)
    assert len(artifacts.CACHES) == len(found)
