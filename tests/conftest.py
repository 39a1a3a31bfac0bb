import functools

import pytest
from hypothesis import settings

from braidcover.identities import CertificateEngine

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@functools.lru_cache(maxsize=None)
def seeded_engine(n: int) -> CertificateEngine:
    """Seeding takes about 0.1 s at 5 strands and 0.5 s at 8, most of it
    compiling and replaying the scripted lemmas of the ladder; share one
    engine per strand count across the whole session."""
    engine = CertificateEngine(n)
    engine.seed_all()
    return engine


@pytest.fixture(scope="session")
def engine_factory():
    return seeded_engine
