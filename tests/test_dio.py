import itertools
import random

import pytest

from autoplex import dio


def naive_solutions(coefficients, constant, target, bounds):
    # brute force over a safe box; only valid when coefficients are positive
    ranges = []
    for a, lo in zip(coefficients, bounds):
        hi = (target - constant) // a
        ranges.append(range(lo, max(lo, hi + 1)))
    out = []
    for combo in itertools.product(*ranges):
        if constant + sum(a * v for a, v in zip(coefficients, combo)) == target:
            out.append(combo)
    return sorted(out)


def test_enumerate_golden():
    cert = dio.enumerate_nonneg((3, 5), 0, 15)
    assert cert.solutions == ((0, 3), (5, 0))
    assert not cert.unique
    cert = dio.enumerate_nonneg((2, 3), 1, 12, bounds=(1, 1))
    assert cert.solutions == ((1, 3), (4, 1))


def test_enumerate_matches_naive():
    rng = random.Random(3)
    for _ in range(60):
        k = rng.randint(1, 3)
        coefficients = tuple(rng.randint(1, 9) for _ in range(k))
        bounds = tuple(rng.randint(0, 2) for _ in range(k))
        constant = rng.randint(0, 10)
        target = rng.randint(0, 60)
        cert = dio.enumerate_nonneg(coefficients, constant, target, bounds=bounds)
        assert list(cert.solutions) == naive_solutions(coefficients, constant, target, bounds)


def test_enumerate_huge_single_variable():
    # one unknown with a huge target must not iterate
    t = (1 << 200) + 7
    assert dio.enumerate_nonneg((7,), 7, t).solutions == ()
    assert dio.enumerate_nonneg((7,), 0, 7 * (1 << 200)).solutions == ((1 << 200,),)


def test_enumerate_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        dio.enumerate_nonneg((0, 2), 0, 4)
    with pytest.raises(ValueError):
        dio.enumerate_nonneg((-1,), 0, 4)


def test_solve_two_particular_and_step():
    rng = random.Random(5)
    for _ in range(100):
        a = rng.randint(-40, 40)
        b = rng.randint(-40, 40)
        if a == 0 and b == 0:
            continue
        c = rng.randint(-100, 100)
        r = dio.solve_two(a, b, c)
        import math

        g = math.gcd(a, b)
        if c % g != 0:
            assert r is None
        else:
            x0, y0 = r["base"]
            dx, dy = r["step"]
            assert a * x0 + b * y0 == c
            assert a * dx + b * dy == 0
            assert (dx, dy) != (0, 0)


def test_certificate_validation_and_uniqueness():
    cert = dio.DioCertificate(
        coefficients=(3, 5),
        constant=0,
        target=15,
        bounds=(1, 0),
        solutions=((5, 0),),
    )
    assert cert.unique
    with pytest.raises(ValueError):
        dio.DioCertificate(
            coefficients=(3, 5),
            constant=0,
            target=15,
            bounds=(0, 0),
            solutions=((1, 1),),
        )
    with pytest.raises(ValueError):
        dio.DioCertificate(
            coefficients=(3, 5),
            constant=0,
            target=15,
            bounds=(1, 1),
            solutions=((0, 3),),
        )


def test_enumeration_work_is_capped(monkeypatch):
    # ~4.5 million solutions: the search stops at MAX_NODES instead
    with pytest.raises(ValueError, match="search nodes"):
        dio.enumerate_nonneg((1, 1, 1), 0, 3000)
    # (1, 1) with slack 9 visits the root and its 10 children
    monkeypatch.setattr(dio, "MAX_NODES", 11)
    assert len(dio.enumerate_nonneg((1, 1), 0, 9).solutions) == 10
    monkeypatch.setattr(dio, "MAX_NODES", 10)
    with pytest.raises(ValueError, match="exceeds 10 search nodes"):
        dio.enumerate_nonneg((1, 1), 0, 9)
