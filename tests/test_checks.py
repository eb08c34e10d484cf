"""Every ``etlab verify`` invariant as a tier-1 test.

Each entry of ``checks.CHECKS`` is one case, with the check's name as its
id, so ``pytest -k dynamics.positivity`` runs that check alone.  A check
added to the registry becomes a test here with no other edit.
"""

import inspect
import re

import pytest

from etlab import checks

_NAME = re.compile(r"(qcore|codes|eth|dynamics|experiments|cli)\.[a-z0-9]+(-[a-z0-9]+)*")


def test_registry_shape():
    names = [name for name, _ in checks.CHECKS]
    assert len(names) == 24
    assert len(set(names)) == len(names)
    for name, fn in checks.CHECKS:
        assert _NAME.fullmatch(name), name
        assert not inspect.signature(fn).parameters, name


@pytest.mark.parametrize("check", [fn for _, fn in checks.CHECKS], ids=[n for n, _ in checks.CHECKS])
def test_check(check):
    detail = check()
    assert isinstance(detail, str) and detail.strip()
