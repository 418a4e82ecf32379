"""The package's public names."""

from __future__ import annotations

import twinroute


def test_every_export_resolves_once():
    """A name in ``__all__`` names something the package holds, and no name
    repeats, so a deleted function cannot linger as an export."""
    names = twinroute.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(twinroute, n)] == []
