import pytest

from ans import closure, generators, green


@pytest.fixture(scope="session")
def closure_of():
    """Session-cached closures, built once per n."""
    cache = {}

    def get(n):
        if n not in cache:
            cache[n] = closure.additive_closure(generators.enumerate_aff(n))
        return cache[n]

    return get


@pytest.fixture(scope="session")
def green_of(closure_of):
    """Session-cached Green structures per (n, reduct)."""
    cache = {}

    def get(n, label):
        if (n, label) not in cache:
            cache[(n, label)] = green.green_brute(closure_of(n).reduct(label))
        return cache[(n, label)]

    return get
