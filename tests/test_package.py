import grassnorm


def test_every_export_exists_once():
    names = grassnorm.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(grassnorm, name)] == []
