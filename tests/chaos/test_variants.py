"""The chaos suite over every protocol variant.

Collects the tests of the four chaos modules again, each one run under
every {gobackn, selective_repeat} x {wwi, eager_rendezvous} pair built as
``ScenarioConfig`` fields (:data:`helpers.CHAOS_VARIANTS`).  Modules whose
sockets pin a data plane run over both reliability modes on that plane
only.  Each run asserts, through ``variant.check``, that the devices'
reliability mode and the connections' transport are the variant's, so the
coverage cannot silently fall back to the defaults.  Every run here arms
the view-pinning assertions.

Set ``REPRO_CHAOS_QUALITY=smoke`` for a reduced sweep (CI smoke target).
"""

import pytest

import test_chaos_stream
import test_flight_recorder
import test_transport_chaos
import test_zero_copy_integrity
from helpers import CHAOS_VARIANTS
from repro.hosts.memory import set_pin_debug

#: module name -> the data plane its sockets pin (None: left to the scenario)
PINNED_PLANE = {
    test_chaos_stream.__name__: None,
    test_flight_recorder.__name__: None,
    test_transport_chaos.__name__: "eager_rendezvous",
    test_zero_copy_integrity.__name__: "wwi",
}

for _module in (test_chaos_stream, test_flight_recorder,
                test_transport_chaos, test_zero_copy_integrity):
    for _name in dir(_module):
        if _name.startswith("test_"):
            globals()[_name] = getattr(_module, _name)


def pytest_generate_tests(metafunc):
    plane = PINNED_PLANE[metafunc.function.__module__]
    variants = [v for v in CHAOS_VARIANTS if plane in (None, v.transport)]
    metafunc.parametrize("variant", variants, ids=[v.id for v in variants])


@pytest.fixture(autouse=True)
def pin_debug():
    set_pin_debug(True)
    yield
    set_pin_debug(False)
