"""Run the doctest examples embedded in the library's docstrings.

Every ``repro`` module with at least one example is collected, so a new
module's examples run without being listed here; ``__main__`` modules
are entry points and are not imported.
"""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import repro


def _modules_with_examples() -> list:
    finder = doctest.DocTestFinder()
    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.rsplit(".", 1)[-1] == "__main__":
            continue
        module = importlib.import_module(info.name)
        if any(test.examples for test in finder.find(module)):
            modules.append(module)
    return modules


MODULES = _modules_with_examples()


@pytest.mark.parametrize("module", MODULES,
                         ids=[m.__name__ for m in MODULES])
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failure(s)"


def test_discovery_finds_the_known_modules():
    names = {module.__name__ for module in MODULES}
    assert {"repro.storage.delta", "repro.storage.backend",
            "repro.service.fetchcache", "repro.obs.trace"} <= names
