import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

from sact.groups import GroupTable  # noqa: E402


@pytest.fixture
def unbroken_symmetry(monkeypatch):
    """Existence searches and weak generation without symmetry breaking:
    the second elliptic, and tau once sigma is fixed, run over their whole
    class."""
    monkeypatch.setattr(GroupTable, "least_second",
                        lambda self, c0, c1: self.classes[c1].elements)
