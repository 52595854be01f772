import simds


def test_star_import_binds_exactly_all():
    """`from simds import *` binds each name of `simds.__all__` once, to
    the package's own object; a stale name would raise AttributeError."""
    namespace = {}
    exec("from simds import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(simds.__all__)
    for name in simds.__all__:
        assert namespace[name] is getattr(simds, name)
