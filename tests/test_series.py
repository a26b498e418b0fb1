"""Tests for the hyperbolic series coefficients behind the g-recursion.

treepoly._hyperbolic(m) gives the t^m/m! coefficients of sinh^2 t,
sinh t cosh t and cosh^2 t as integers.
"""

from kcycles import treepoly


def test_sinh2_plus_cosh2_is_cosh_2t():
    # cosh 2t has 2^m at t^m/m! for even m, 0 for odd m
    for m in range(13):
        sinh2, _, cosh2 = treepoly._hyperbolic(m)
        assert sinh2 + cosh2 == (2 ** m if m % 2 == 0 else 0)


def test_sinh_cosh_is_half_sinh_2t():
    # sinh(2t)/2 has coefficient 4^n/(2n+1)! at t^(2n+1), so 2^(m-1) at
    # t^m/m! for odd m and 0 for even m
    for m in range(13):
        _, sinh_cosh, _ = treepoly._hyperbolic(m)
        assert 2 * sinh_cosh == (2 ** m if m % 2 else 0)
    assert [treepoly._hyperbolic(m)[1] for m in (1, 2, 3, 5)] == [1, 0, 4, 16]
