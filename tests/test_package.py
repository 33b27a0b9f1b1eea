import speclab


def test_every_exported_name_resolves():
    # a stale ``__all__`` entry breaks only ``from speclab import *``, which
    # nothing else in the suite runs
    assert [name for name in speclab.__all__ if not hasattr(speclab, name)] == []
    assert len(set(speclab.__all__)) == len(speclab.__all__)
    namespace: dict = {}
    exec("from speclab import *", namespace)
    assert set(speclab.__all__) <= set(namespace)
