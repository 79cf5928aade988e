"""The switch for the paper-scale tests: each is marked ``slow`` and skipped
unless HEAVYMP_FULL_SCALE=1 is set, whether or not ``-m slow`` selects it."""

import os

import pytest


def pytest_collection_modifyitems(config, items):
    if os.environ.get("HEAVYMP_FULL_SCALE"):
        return
    skip = pytest.mark.skip(reason="paper-scale run; set HEAVYMP_FULL_SCALE=1")
    for item in items:
        if item.get_closest_marker("slow"):
            item.add_marker(skip)
