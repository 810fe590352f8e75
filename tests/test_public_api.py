"""The package's public surface: what ``from coincide import *`` binds."""
from __future__ import annotations

import coincide


def test_star_import_binds_exactly_all():
    # A name left in ``__all__`` after its import is deleted makes the star
    # import raise; a duplicate makes the two lists differ.
    ns: dict = {}
    exec("from coincide import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == sorted(coincide.__all__)
