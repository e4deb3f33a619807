import sjive


def test_every_exported_name_resolves_once():
    assert len(set(sjive.__all__)) == len(sjive.__all__)
    missing = [name for name in sjive.__all__ if not hasattr(sjive, name)]
    assert missing == []
