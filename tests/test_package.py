import openbook


def test_public_names_resolve():
    # every exported name is a real attribute, listed once
    names = openbook.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(openbook, name)] == []
