"""The package's public surface."""
import dpe_multipath


def test_every_export_resolves():
    missing = [name for name in dpe_multipath.__all__ if not hasattr(dpe_multipath, name)]
    assert missing == []
