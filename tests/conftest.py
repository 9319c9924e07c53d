import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings

from heatkern import make_kernel, profile

# every property draws the same examples on every run
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def coeffs_heat():
    return profile("constant-heat", T=2.5, a=1.0)


@pytest.fixture(scope="session")
def coeffs_cable():
    return profile("cable", T=2.5, lam=1.0, tau=2.0)


@pytest.fixture(scope="session")
def coeffs_fp():
    return profile("fokker-planck", T=2.5)


@pytest.fixture(scope="session")
def coeffs_ou():
    return profile("ou-drift", T=2.5, a=1.0, k=1.0, g=0.5)


@pytest.fixture(scope="session")
def coeffs_ou_plain():
    return profile("ou-drift", T=2.5, a=1.0, k=1.0, g=0.0)


@pytest.fixture(scope="session")
def kernel_heat(coeffs_heat):
    return make_kernel(coeffs_heat, tol=1e-12)


@pytest.fixture(scope="session")
def kernel_cable(coeffs_cable):
    return make_kernel(coeffs_cable, tol=1e-12)


@pytest.fixture(scope="session")
def kernel_fp(coeffs_fp):
    return make_kernel(coeffs_fp, tol=1e-12)


@pytest.fixture(scope="session")
def kernel_ou(coeffs_ou):
    return make_kernel(coeffs_ou, tol=1e-12)


@pytest.fixture(scope="session")
def kernel_ou_plain(coeffs_ou_plain):
    return make_kernel(coeffs_ou_plain, tol=1e-12)


@pytest.fixture(scope="session")
def deadline():
    """``with deadline(s):`` fails the block with TimeoutError after ``s`` seconds."""

    @contextmanager
    def limit(seconds):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    return limit
