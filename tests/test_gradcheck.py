"""The full finite-difference gradient audit, ``taskfusion gradcheck``.

It takes well over a minute, so it is marked ``slow`` and left out of the
default run; run it with ``pytest -m slow``."""

import pytest

from taskfusion import cli


@pytest.mark.slow
def test_gradcheck_passes_every_check(capsys):
    assert cli.main(["gradcheck"]) == 0
    assert "127/127 checks passed" in capsys.readouterr().out
