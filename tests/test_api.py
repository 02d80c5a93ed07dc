import types

import peer_lab


def test_every_exported_name_resolves_once():
    assert len(peer_lab.__all__) == len(set(peer_lab.__all__))
    missing = [name for name in peer_lab.__all__ if not hasattr(peer_lab, name)]
    assert missing == []


def test_every_public_attribute_is_exported():
    public = {name for name, value in vars(peer_lab).items() if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(peer_lab.__all__)
