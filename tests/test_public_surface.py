import domatch


def test_all_is_sorted_unique_public_and_resolvable():
    names = domatch.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert not name.startswith("_"), name
        assert hasattr(domatch, name), name
