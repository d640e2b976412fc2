"""The package's public surface."""

import qcy


def test_every_exported_name_resolves():
    missing = [name for name in qcy.__all__ if not hasattr(qcy, name)]
    assert missing == []
    assert len(set(qcy.__all__)) == len(qcy.__all__)
