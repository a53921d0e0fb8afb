"""Shared pytest setup.

Property tests draw the same examples on every run.  ``closed_forms`` is a
session memo of the two closed-form builders, keyed by kind, for tests that
rebuild the same forms.  The builders are the names bound here at import,
so a test that monkeypatches ``hurwitz.closedform`` never reaches the memo;
and it holds only ``GenusClosedForm``, which is frozen, so no test can
change what another reads.
"""
from functools import cache

import pytest
from hypothesis import settings

from hurwitz.closedform import monotone_closed_form, simple_closed_form

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def closed_forms():
    return {"simple": cache(simple_closed_form), "monotone": cache(monotone_closed_form)}
