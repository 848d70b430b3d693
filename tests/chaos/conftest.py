"""The ``variant`` fixture of the chaos suite.

Chaos tests build their testbeds through ``variant`` (a
:class:`helpers.ChaosVariant`).  In a test's own module it is the default
variant, which leaves transport and reliability to the scenario, so those
test ids run exactly as written; ``test_variants.py`` collects the same
tests again over every explicit reliability-mode x data-plane pair.
"""

import pytest

from helpers import ChaosVariant


@pytest.fixture
def variant() -> ChaosVariant:
    return ChaosVariant()
