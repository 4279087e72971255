"""The package's export surface: every name in suq2.__all__ resolves."""
import suq2


def test_every_exported_name_resolves():
    assert [name for name in suq2.__all__ if not hasattr(suq2, name)] == []
    assert len(set(suq2.__all__)) == len(suq2.__all__)


def test_star_import():
    namespace = {}
    exec("from suq2 import *", namespace)
    assert set(suq2.__all__) <= set(namespace)
