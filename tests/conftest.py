import json
from importlib import resources
from pathlib import Path

import pytest

from infkit.iojson import load_json, parse_cp
from inputs import four_element_model


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return Path(str(resources.files("infkit") / "corpus"))


@pytest.fixture(scope="session")
def manifest(corpus_dir) -> dict:
    return json.loads((corpus_dir / "manifest.json").read_text())


@pytest.fixture(scope="session")
def m4():
    return four_element_model()


def load_family(corpus_dir, name):
    return parse_cp(load_json(str(corpus_dir / f"{name}.json")))


@pytest.fixture(scope="session")
def eq4(corpus_dir):
    return load_family(corpus_dir, "eq4_family")


@pytest.fixture(scope="session")
def eq2(corpus_dir):
    return load_family(corpus_dir, "eq2_family")


@pytest.fixture(scope="session")
def max_family(corpus_dir):
    return load_family(corpus_dir, "max_family")


@pytest.fixture(scope="session")
def good_families(corpus_dir):
    """Every shipped explicit family that is a consistency property."""
    names = ("eq4_family", "eq2_family", "conditions_family", "max_family")
    return {n: load_family(corpus_dir, n) for n in names}
