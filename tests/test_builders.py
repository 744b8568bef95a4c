"""Builders: group algebras, crossed products, Galois examples."""
import hashlib
import tracemalloc

import pytest

from gradedrings.algebra import GradedAlgebra, validate_algebra
from gradedrings.builders import (
    crossed_product,
    finite_field_algebra,
    full_matrix_algebra,
    galois_skew_example,
    group_algebra,
    inner_automorphism_matrix,
    lowest_irreducible,
    m3_example,
    skew_group_ring,
    twisted_group_algebra,
    validate_automorphism,
)
from gradedrings.corpus import checkerboard_m2, inner_conjugation_skew, standard_corpus
from gradedrings.errors import InvalidInput
from gradedrings.groups import cyclic_group, klein_four_group
from gradedrings.linalg import GF, RATIONALS, Matrix
from gradedrings.serialize import algebra_to_json


def test_group_algebra_shape():
    alg = group_algebra(GF(3), cyclic_group(4))
    assert alg.dim == 4
    assert alg.comp_dims == (1, 1, 1, 1)
    assert validate_algebra(alg).ok
    u1 = alg.basis_element(1, 0)
    assert u1 * u1 == alg.basis_element(2, 0)


def test_full_matrix_algebra_simple_shape():
    alg = full_matrix_algebra(GF(2), 3)
    assert alg.dim == 9
    assert alg.group.order == 1
    assert validate_algebra(alg).ok


def test_lowest_irreducible_pins():
    # x^2 + x + 1 over GF(2); coefficients low-degree first
    assert lowest_irreducible(2, 2) == [1, 1, 1]
    # the cubic x^3 + x + 1 beats x^3 + x^2 + 1 lexicographically
    assert lowest_irreducible(2, 3) == [1, 1, 0, 1]


def test_finite_field_algebra_frobenius():
    base, frob = finite_field_algebra(2, 2)
    assert base.dim == 2
    assert validate_algebra(base).ok
    # Frobenius squares to the identity on GF(4)
    assert (frob @ frob).is_identity()
    assert not frob.is_identity()
    validate_automorphism(base, frob)


@pytest.mark.parametrize("build", [lowest_irreducible, finite_field_algebra])
def test_degree_zero_is_refused(build):
    with pytest.raises(InvalidInput, match=r"^no irreducible of degree 0 over GF\(2\)$"):
        build(2, 0)


def test_m3_block_structure():
    alg = m3_example(GF(2))
    assert alg.comp_dims == (5, 4)
    assert validate_algebra(alg).ok
    assert alg.meta.get("kind") == "m3"


def test_galois_skew_dimensions_and_meta():
    alg = galois_skew_example(2, 2)
    assert alg.dim == 4
    assert alg.comp_dims == (2, 2)
    assert alg.meta["p"] == 2 and alg.meta["n"] == 2
    assert alg.meta["modulus"] == [1, 1, 1]
    assert validate_algebra(alg).ok
    big = galois_skew_example(3, 2)
    assert big.dim == 4
    assert validate_algebra(big).ok


def test_galois_skew_rejects_degenerate_params():
    with pytest.raises(InvalidInput):
        galois_skew_example(2, 1)
    with pytest.raises(InvalidInput):
        galois_skew_example(4, 2)


def test_galois_skew_build_for_a_large_prime_stays_small():
    # the Frobenius columns x^(ip) mod f come by square and multiply, so
    # neither memory nor time grows with p
    tracemalloc.start()
    try:
        alg = galois_skew_example(1000003, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert alg.dim == 4 and validate_algebra(alg).ok
    # x^2 + 1 is irreducible since p = 3 mod 4, and x^p = -x
    _, frob = finite_field_algebra(1000003, 2)
    assert frob == Matrix(GF(1000003), [[1, 0], [0, -1]])


def test_skew_group_ring_rejects_non_automorphism():
    base, _ = finite_field_algebra(2, 2)
    bad = Matrix(GF(2), [[1, 1], [0, 0]])  # singular, no automorphism
    with pytest.raises(InvalidInput):
        skew_group_ring(base, cyclic_group(2), [Matrix.identity(GF(2), 2), bad])


def test_skew_group_ring_rejects_wrong_order_action():
    base, frob = finite_field_algebra(2, 2)
    # frob has order 2, so placing it at a generator of Z/3 cannot compose
    with pytest.raises(InvalidInput):
        skew_group_ring(
            base, cyclic_group(3), [Matrix.identity(GF(2), 2), frob, frob]
        )


def test_rejection_texts_name_the_failing_index():
    # each failure lies past the first index its loop visits
    base, _ = finite_field_algebra(2, 3)
    s = Matrix.from_columns(GF(2), [(1, 0, 0), (0, 1, 0), (0, 1, 1)])  # x^2 -> x + x^2
    with pytest.raises(InvalidInput, match=r"^sigma is not multiplicative at basis pair \(1, 1\)$"):
        validate_automorphism(base, s)
    eye = Matrix.identity(GF(3), 4)
    with pytest.raises(InvalidInput) as info:
        crossed_product(
            full_matrix_algebra(GF(3), 2), cyclic_group(2), [eye, eye], {(1, 1): (1, 0, 0, 2)}
        )
    assert str(info.value) == (
        "twisted composition sigma_g sigma_h = Ad(alpha(g,h)) sigma_gh fails at (1,1) "
        "on basis element 1"
    )
    with pytest.raises(InvalidInput, match=r"^cocycle identity fails at triple \(1,1,2\)$"):
        twisted_group_algebra(GF(5), cyclic_group(3), {(1, 1): 2})


def test_twisted_group_algebra_cocycle_validation():
    f = GF(3)
    z2 = cyclic_group(2)
    good = {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 2}
    alg = twisted_group_algebra(f, z2, good)
    assert validate_algebra(alg).ok
    u = alg.basis_element(1, 0)
    assert u * u == alg.one().scale(2)
    # breaking normalization alpha(e, g) = 1 must be rejected
    bad = dict(good)
    bad[(0, 1)] = 2
    with pytest.raises(InvalidInput):
        twisted_group_algebra(f, z2, bad)


def test_crossed_product_requires_trivially_graded_base():
    amb = group_algebra(GF(2), cyclic_group(2))
    with pytest.raises(InvalidInput):
        crossed_product(amb, cyclic_group(2), [Matrix.identity(GF(2), 2)] * 2)


def test_inner_automorphism_matrix_roundtrip():
    base = full_matrix_algebra(GF(3), 2)
    w = base.element({0: (0, 1, 1, 0)})  # the swap matrix; self-inverse
    sigma = inner_automorphism_matrix(base, w)
    validate_automorphism(base, sigma)
    assert (sigma @ sigma).is_identity()
    with pytest.raises(InvalidInput):
        inner_automorphism_matrix(base, base.basis_element(0, 1))  # nilpotent


def test_builders_over_rationals():
    alg = group_algebra(RATIONALS, klein_four_group())
    assert alg.dim == 4
    assert validate_algebra(alg).ok


# SHA-256 of algebra_to_json for the matrix-unit algebras, recorded before
# their three hand-written tables were folded into one builder.
MATRIX_UNIT_DIGESTS = {
    "m3_example-gf2": "b07df9bb1505fcef4d1fec5eb906e9faa44576485a6fb13ef870b1f4238775ab",
    "m3_example-gf3": "8e803d66a10cf1751b9d4cf893a2de02e0a889dfdd1bfce72ec601ef76be5281",
    "m3_example-q": "13c4ddf3ada951d472c677be06834163348b9afefd424faf232b2f810ad5d8cb",
    "full_matrix_algebra-gf2-1": "d943cd4b339620cebffd3cd842c789be37476539b16f640d448fd0c79dca52e7",
    "full_matrix_algebra-gf2-2": "7c461e2c9dd7ee760cff87d3f4df72a4226e351166fa91ce36ea5b222718f3d4",
    "full_matrix_algebra-gf2-3": "5f20eff58b958b3f1e845b5eb1f9c27d08b68a5ec73081d17404ca08a374b413",
    "full_matrix_algebra-gf2-4": "a15093bcaa95e814d41408d1b1927ebdfa9193a662dda6bf7337c5d4c4c627ce",
    "full_matrix_algebra-gf2-5": "503024b18d81ff2ae83cbc1e6ca567642acebe8642145723cbb9b70327cbf869",
    "full_matrix_algebra-gf3-1": "f55ae0d57ea3b1f523851834bb5907c4995fa63b234281905b2475bc03597e96",
    "full_matrix_algebra-gf3-2": "c777bf4e3e365bfdab04d541aff3512e44bceebff51fb8d86705d57dceade1e6",
    "full_matrix_algebra-gf3-3": "a0f0f32bb16fd2818cd2c494b6c39f9b19501f8f6861329e628cb801aec39941",
    "full_matrix_algebra-gf3-4": "4c7cf41edd15f36b6661b66b060fdfd8c83008e9ed6da8a55922700296346a49",
    "full_matrix_algebra-gf3-5": "4de3fffa84538989240fe90225c5f91f79b0c49e95adfe7d2f3c1eb28845b1b6",
    "full_matrix_algebra-q-1": "0f940c49e11a841f23062c714d8e53ba1c7331cb2f4d551314fe1852fb70a8d5",
    "full_matrix_algebra-q-2": "d2b4586be7938cea72f7680753e645cf02ae33079486d3de11f55aa054258938",
    "full_matrix_algebra-q-3": "e8132a71358bf55a3e718617d240c5900518a937257c880d8c6ee365ab0f98c5",
    "full_matrix_algebra-q-4": "cf421a93c6cf0bdcde7e557ceb956bf9ac658858de6a9daaeba669a48e8ead30",
    "full_matrix_algebra-q-5": "858364a69198c16ba5df134d349aacf0575f2e6dae1cd9ba9914d5883759cbcb",
    "checkerboard_m2-gf2": "a62fc71f189daa17242868134b3e4bfc5dab10e8ecb333a53186cd684e9c4c24",
    "checkerboard_m2-gf3": "2dcdc2c9aba7d5aeb504bd70a9718c58da5a8932782677b39819b04f38be9e3f",
}

FIELDS = {"gf2": GF(2), "gf3": GF(3), "q": RATIONALS}


def _matrix_unit_algebra(key):
    builder, tag, *size = key.split("-")
    field = FIELDS[tag]
    if builder == "m3_example":
        return m3_example(field)
    if builder == "checkerboard_m2":
        return checkerboard_m2(field)
    return full_matrix_algebra(field, int(size[0]))


@pytest.mark.parametrize("key", sorted(MATRIX_UNIT_DIGESTS))
def test_matrix_unit_algebras_are_pinned(key):
    text = algebra_to_json(_matrix_unit_algebra(key))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == MATRIX_UNIT_DIGESTS[key]


# SHA-256 of algebra_to_json for the algebras built by crossed_product
# (directly, or through skew_group_ring, twisted_group_algebra and
# inner_automorphism_matrix), recorded before the builder moved from
# element products to multiplication operators.  Keys without a builder
# prefix are standard_corpus names.
CROSSED_PRODUCT_DIGESTS = {
    "galois_skew_example-2-2": "7203991b065a2cd37ed182beee24dd9eba8a44a3801c3856481fbb1d5a8fa08a",
    "galois_skew_example-2-3": "5f2939b827fde052cd40cc610edc01aa49abf9464f23d35c8ab5addd2a4ebbdf",
    "galois_skew_example-2-4": "d478ac106c78259a44d139080af90e84d6dcfa11b7296b7d4c09edfe2ed95125",
    "galois_skew_example-3-2": "320218a026e0cacca78bf7673e3c088a5ad884db4a5cde52d2cd56a082dcfc7a",
    "galois_skew_example-3-3": "ba06762152fd973841180485e7b57d215ffa71961529c91f0144b4aa6f9dc683",
    "twisted_group_algebra-q-z2": "363c168ce05a581f042afe4ce801a771f322383c0250af6fd86d5950d9559a49",
    "inner_conjugation_skew-q": "a9f2b73ca9f3fa7533cd12f81832c7f3c442bbf0b3d8f21506ac1f457480638f",
    "gf3-z2-twisted": "aadeff07766dd6c87ce04f218c0508bbbff957274c6e5056941c8b5fec6fb129",
    "gf3-z3-coboundary": "eeb07e702039d061897abd1c2e953dfbf1bc8902c8b84d86f29d870800c939b9",
    "gf3-z4-twisted": "c8c620bbf81ccfb292a056946f1c4113e2bca8c0e0b9c49e77813ec8abb5bfda",
    "gf3-v4-twisted": "dbf435ed5cee59f2c02dcad45dd7cd092ffccca3d2fb382aad628d0f3f83f642",
    "gf3-v4-coboundary": "cf0ee1b3e3867a26115021e12a96a0b70a10f13b844c40141048ec5caa441b99",
    "galois-2-2": "7203991b065a2cd37ed182beee24dd9eba8a44a3801c3856481fbb1d5a8fa08a",
    "galois-3-2": "320218a026e0cacca78bf7673e3c088a5ad884db4a5cde52d2cd56a082dcfc7a",
    "gf2-m2-inner": "561514abb572d3df203d4386ff344359cc2edcda6d4e97c8dfc6dd47644e5029",
    "gf3-m2-inner": "dae94c31edce819221364dcc61a7864f04860552c5da1f30103299238abde4b6",
    "gf2-untwisted-ext": "707f4e74a0e05bf4f5cae30c7e0e60c7ca9a2fbf86020ebfdf334d6e050f92dd",
    "gf2-split-swap": "a62fc71f189daa17242868134b3e4bfc5dab10e8ecb333a53186cd684e9c4c24",
    "gf3-split-swap": "2dcdc2c9aba7d5aeb504bd70a9718c58da5a8932782677b39819b04f38be9e3f",
    "galois-3-2-twisted": "e64d690fb95ac05e9c199fcdf0e0f9da3e47be711a21219515274e6d3c1aded0",
}

GALOIS_SIZES = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))
CROSSED_PRODUCT_BUILDS = {
    **{f"galois_skew_example-{p}-{n}": (galois_skew_example, p, n) for p, n in GALOIS_SIZES},
    "twisted_group_algebra-q-z2": (twisted_group_algebra, RATIONALS, cyclic_group(2), {(1, 1): -1}),
    "inner_conjugation_skew-q": (inner_conjugation_skew, RATIONALS),
}


CROSSED_KINDS = {"twisted-group-algebra", "skew-group", "crossed-product"}
CORPUS_CROSSED = {inst.name: inst.alg for inst in standard_corpus() if inst.kind in CROSSED_KINDS}


def test_crossed_product_digests_cover_the_corpus():
    assert set(CORPUS_CROSSED) == set(CROSSED_PRODUCT_DIGESTS) - set(CROSSED_PRODUCT_BUILDS)


@pytest.mark.parametrize("key", sorted(CROSSED_PRODUCT_DIGESTS))
def test_crossed_product_builds_are_pinned(key):
    if key in CROSSED_PRODUCT_BUILDS:
        builder, *args = CROSSED_PRODUCT_BUILDS[key]
        alg = builder(*args)
    else:
        alg = CORPUS_CROSSED[key]
    text = algebra_to_json(alg)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CROSSED_PRODUCT_DIGESTS[key]


def test_skew_group_ring_build_applies_no_cocycle(monkeypatch):
    # every alpha(g,h) of a skew group ring is 1, whose right multiplication
    # is the identity: the build must not form it
    calls = []
    right = GradedAlgebra.right_matrix
    monkeypatch.setattr(
        GradedAlgebra, "right_matrix", lambda alg, x: calls.append(x) or right(alg, x)
    )
    galois_skew_example(2, 4)
    assert calls == []


def test_matrix_unit_labels_in_row_column_order():
    m3 = m3_example(GF(2))
    assert [m3.label(0, i) for i in range(5)] == ["e11", "e13", "e22", "e31", "e33"]
    assert [m3.label(1, i) for i in range(4)] == ["e12", "e21", "e23", "e32"]
    m2 = full_matrix_algebra(GF(3), 2)
    assert [m2.label(0, i) for i in range(4)] == ["e11", "e12", "e21", "e22"]
    cb = checkerboard_m2(GF(2))
    assert [cb.label(g, i) for g in range(2) for i in range(2)] == ["e11", "e22", "e12", "e21"]


def test_matrix_unit_labels_stay_distinct_from_n_10_on():
    # e<i><j> would give e111 to both e_1,11 and e_11,1
    m11 = full_matrix_algebra(GF(2), 11)
    labels = [m11.label(0, k) for k in range(121)]
    assert len(set(labels)) == 121
    assert labels[10] == "e1,11" and labels[110] == "e11,1"
    m9 = full_matrix_algebra(GF(2), 9)
    assert m9.label(0, 80) == "e99"
