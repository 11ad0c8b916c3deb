import os
import sys
import tempfile

import pytest

from meca import verify

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # the same examples on every run, and no example database on disk
    settings.register_profile("meca", derandomize=True, database=None, deadline=None)
    settings.load_profile("meca")

# Hypothesis caches what it reads of the source, from collection on, under its
# storage directory (./.hypothesis by default); keep that out of the tree
_HYPOTHESIS_DIR = tempfile.TemporaryDirectory(prefix="meca-hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _HYPOTHESIS_DIR.name)


def pytest_unconfigure(config):
    _HYPOTHESIS_DIR.cleanup()


@pytest.fixture
def corrupted_gradients(monkeypatch):
    """Every analytic gradient of the gradient suite, off by 0.05 in its
    first weight."""
    real = verify.gradient_check_losses

    def nudged(grads_fn):
        def grads(model):
            out = grads_fn(model)
            out.weights[0].reshape(-1)[0] += 0.05
            return out

        return grads

    def corrupted(*args, **kwargs):
        return [(name, loss, nudged(g)) for name, loss, g in real(*args, **kwargs)]

    monkeypatch.setattr(verify, "gradient_check_losses", corrupted)


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance-criteria PASS/FAIL lines after capture ends."""
    for name, mod in sys.modules.items():
        if name.endswith("test_acceptance"):
            lines = getattr(mod, "REPORT_LINES", [])
            if lines:
                terminalreporter.section("acceptance criteria")
                for line in lines:
                    terminalreporter.write_line(line)
            break
