"""The package surface: what ``coopzf`` exports."""

from __future__ import annotations

from collections import Counter

import coopzf


def test_all_names_resolve_once():
    repeated = [name for name, count in Counter(coopzf.__all__).items() if count > 1]
    assert repeated == []
    missing = [name for name in coopzf.__all__ if not hasattr(coopzf, name)]
    assert missing == []
