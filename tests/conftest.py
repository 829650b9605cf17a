import numpy as np
import pytest

from beamloc.activations import ActivationKind
from beamloc.channel import default_profile, generate_fingerprints
from beamloc.weights import random_bundle


def pytest_report_header(config):
    """numpy and its BLAS, on which the fingerprint and sweep CSV pins depend.

    The pins read numpy's generator and its complex ``exp``, and the
    preprocessing's complex product runs in the BLAS ``zgemm``.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 has no "dicts" mode
        return f"numpy {np.__version__}, BLAS not reported"
    build = " ".join(blas.get("openblas configuration", "").split())
    return f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}" + (build and f" ({build})")


def pytest_terminal_summary(terminalreporter, config):
    # -q hides the header, so a quiet run's log gets the line at its end.
    if config.option.verbose < 0:
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture(scope="session")
def toy_bundle():
    # n=8 beams, d=4 features, 2 heads of width 2, pooling 4+0 -> 2 per row
    return random_bundle(
        seed=11, scale=0.25, n=8, d=4, heads=2, d_ff=6, d_h=5,
        pool_k=2, pool_p=0, activation=ActivationKind.SIGMOID_BIAS_LUT,
    )


@pytest.fixture(scope="session")
def full_bundle():
    return random_bundle(seed=7, scale=0.25)


@pytest.fixture(scope="session")
def s1_batch():
    return generate_fingerprints(default_profile("S1", seed=42), 8)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
