import numpy as np
import pytest

import helpers
from helpers import make_pki


@pytest.fixture(scope="session")
def pki():
    """(keystore, tsa) pair with publisher and tsa-root keys."""
    return make_pki()


@pytest.fixture()
def rng_np():
    return np.random.default_rng(20240817)


def pytest_terminal_summary(terminalreporter):
    # acceptance verdicts, one line each, visible despite output capture
    if helpers.CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in helpers.CRITERION_LINES:
            terminalreporter.write_line(line)
    if helpers.SCORECARD_LINES:
        terminalreporter.section("detector scorecard")
        for line in helpers.SCORECARD_LINES:
            terminalreporter.write_line(line)
