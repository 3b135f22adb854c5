"""Every canonical export, byte for byte, against the golden digests.

``tests/golden/digests.json`` was generated at an earlier commit; each
case rebuilds its files through ``python -m repro`` and must reproduce
them exactly.  See :mod:`tests.golden` for re-blessing.
"""

import pytest

from tests import golden


def test_every_pinned_digest_has_a_case():
    cases = {key.split("/", 1)[0] for key in golden.load()["digests"]}
    assert cases == set(golden.CASES)


@pytest.mark.parametrize(
    "case",
    [
        pytest.param(case, marks=pytest.mark.slow) if case in golden.SLOW else case
        for case in golden.CASES
    ],
)
def test_digests_unchanged(case, tmp_path):
    assert golden.build(case, tmp_path) == golden.pinned(case)
