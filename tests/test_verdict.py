import pytest

from permacheck import Verdict


@pytest.mark.parametrize("status, witness", [
    ("maybe", None), (Verdict.FAILS, None), (Verdict.HOLDS, {"x": 1.0})],
    ids=["unknown status", "fails without witness", "holds with witness"])
def test_inconsistent_verdict_raises(status, witness):
    with pytest.raises(ValueError):
        Verdict(status, witness)
