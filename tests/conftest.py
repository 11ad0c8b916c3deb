import sys

import pytest

from meca import verify


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
