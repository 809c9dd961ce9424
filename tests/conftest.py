import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from sact.groups import GroupTable  # noqa: E402


@pytest.fixture
def unbroken_symmetry(monkeypatch):
    """Existence searches without symmetry breaking: the second elliptic
    runs over its whole class, and g0 = 1 handle scans skip no r2."""
    monkeypatch.setattr(GroupTable, "least_second",
                        lambda self, c0, c1: self.classes[c1].elements)
    monkeypatch.setattr(GroupTable, "least_under_centralizer",
                        lambda self, mask: None)
