import pytest
from hypothesis import HealthCheck, settings

from nilclean import DEFAULT_FAMILY, Caps, build

settings.register_profile(
    "suite",
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def family_rings():
    """The default check family, built once and shared (rings are immutable)."""
    caps = Caps()
    return [build(spec, caps) for spec in DEFAULT_FAMILY]


@pytest.fixture(scope="session")
def small_family_rings(family_rings):
    return [r for r in family_rings if r.order <= 64]


# Rings with many idempotents, beyond the default family, for the
# differential tests against the brute-force oracles.
RICH_SPECS = (
    "Z2xZ2xZ2xZ2xZ2xZ2",
    "Z6xZ10",
    "Z30xZ2",
    "T2(Z2xZ2)",
    "Id(8,4)",
    "Q(Z24;[8])",
)


@pytest.fixture(scope="session")
def differential_rings(small_family_rings):
    """The family rings of order <= 64 and the rich rings above."""
    return small_family_rings + [build(spec) for spec in RICH_SPECS]
