import pytest

from prismhom import algebra

from oracles import conjugation_tables, permutation_group


@pytest.fixture(scope="session")
def one_elt():
    return algebra.one_element()


@pytest.fixture(scope="session")
def z2():
    return algebra.conj_cyclic(2)


@pytest.fixture(scope="session")
def z3():
    return algebra.conj_cyclic(3)


@pytest.fixture(scope="session")
def s3():
    return algebra.conj_symmetric(3)


@pytest.fixture(scope="session")
def proj4():
    # projection action over multiplication mod 4: commutative, unital, not a group
    return algebra.mul_mod_shalgebra(4)


@pytest.fixture(scope="session")
def d4():
    # the dihedral group of order 8, the symmetries of a square, by conjugation
    return algebra.Shalgebra(*conjugation_tables(*permutation_group([(1, 2, 3, 0), (0, 3, 2, 1)])))
