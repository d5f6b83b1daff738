from collections import Counter
from fractions import Fraction as Q
import random

import pytest

from helpers import (
    CATALOGUE_NAMES,
    RANK4_CATALOGUE,
    coroot_pairing,
    perturbed_root_datum,
    reference_validate,
    reflect_root,
    word_matrices,
)
from weylfan import linalg as la
from weylfan._value import replace
from weylfan.errors import DimensionMismatch, NonRootSystem, TypeMismatch
from weylfan.rootdata import (
    DiagramSubset,
    RootDatum,
    WeylElement,
    build_root_datum,
    components,
    orthogonal_complement,
    weyl_enumerate,
)


CLASSICAL = [
    ("A1", 2, 2),
    ("A2", 6, 6),
    ("A3", 12, 24),
    ("B2", 8, 8),
    ("B3", 18, 48),
    ("C3", 18, 48),
    ("A4", 20, 120),
    ("D4", 24, 192),
    ("B4", 32, 384),
    ("F4", 48, 1152),
    ("G2", 12, 12),
    ("BC1", 4, 2),
    ("BC2", 12, 8),
    ("A1xA1", 4, 4),
    ("A1xA2", 8, 12),
    ("B5", 50, 3840),
    ("A7", 56, 40320),
]


@pytest.mark.parametrize("name,roots,weyl_order", CLASSICAL)
def test_catalogue_counts(name, roots, weyl_order):
    datum = build_root_datum(name)
    datum.validate()
    assert len(datum.roots) == roots
    assert len(weyl_enumerate(datum)) == weyl_order
    assert datum.weyl_order == weyl_order  # from a stabiliser chain


def test_weyl_order_of_an_explicit_datum():
    roots = [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [1, -1], [-1, 1]]
    datum = build_root_datum(roots, basis=[6, 2])  # B2: a1 = (1,-1), a2 = (0,1)
    assert datum.weyl_order == len(weyl_enumerate(datum)) == 8


def test_a2_basis_and_bc1_shape():
    a2 = build_root_datum("A2")
    assert len(a2.simples) == 2
    bc1 = build_root_datum("BC1")
    a = bc1.simples[0]
    assert set(bc1.roots) == {(1,), (-1,), (2,), (-2,)}
    assert set(bc1.nondivisible_roots) == {(1,), (-1,)}
    assert a in bc1.multipliable


@pytest.mark.parametrize("name", ["A2", "B2", "BC2", "G2", "A1xA2"])
def test_weyl_elements_permute_roots(name):
    datum = build_root_datum(name)
    weyl = weyl_enumerate(datum)
    root_set = datum.root_set
    for w in weyl:
        assert {w.apply_root(a) for a in datum.roots} == root_set


@pytest.mark.parametrize("name", ["A2", "B2", "BC2", "G2"])
def test_reflection_identity(name):
    datum = build_root_datum(name)
    for a in datum.roots:
        for b in datum.roots:
            c = coroot_pairing(datum, a, b)
            assert c.denominator == 1
            image = tuple(x - int(c) * y for x, y in zip(a, b))
            assert image in datum.root_set


@pytest.mark.parametrize("name", ["A2", "B3", "C3", "G2", "BC2", "A1xA2"])
def test_cartan_matches_inner_product(name):
    datum = build_root_datum(name)
    for i, a in enumerate(datum.simples):
        for j, b in enumerate(datum.simples):
            assert coroot_pairing(datum, a, b) == datum.cartan[i][j]


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "BC2"])
def test_short_simple_root_normalisation(name):
    datum = build_root_datum(name)
    assert min(datum.length_sq(s) for s in datum.simples) == 2


def test_bc_divisibility_partition():
    for name in ["BC1", "BC2"]:
        datum = build_root_datum(name)
        for a in datum.roots:
            doubled = tuple(2 * c for c in a)
            assert (a in datum.multipliable) == (doubled in datum.root_set)
        doubles = {tuple(2 * c for c in a) for a in datum.multipliable}
        assert set(datum.nondivisible_roots) | doubles == set(datum.roots)


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "BC1", "BC3", "A1xA2"])
def test_root_slots_cover_every_root(name):
    datum = build_root_datum(name)
    ks = datum.positive_nondivisible_roots
    assert set(ks) == {a for a in datum.nondivisible_roots if all(c >= 0 for c in a)}
    assert set(datum.root_slots) == set(datum.roots)
    for b, (k, e) in datum.root_slots.items():
        assert b in {tuple(m * e * c for c in ks[k]) for m in (1, 2)}


@pytest.mark.parametrize("name", RANK4_CATALOGUE)
def test_root_permutations_are_the_simple_reflections(name):
    datum = build_root_datum(name)
    roots = datum.positive_nondivisible_roots
    for k, (p, m) in enumerate(datum.root_permutations):
        assert roots[m] == datum.simples[k]
        assert sorted(p) == list(range(len(roots)))
        for j, a in enumerate(roots):
            image = reflect_root(datum, a, datum.simples[k])
            assert image == (tuple(-c for c in a) if j == m else roots[p[j]]), (k, j)


@pytest.mark.parametrize("name", RANK4_CATALOGUE)
def test_matrix_views_match_the_fold_of_simple_reflections(name):
    """Every element's three matrix views, made from its word, equal the
    `la.mat_mul` fold of the simple reflection matrices along that word."""
    datum = build_root_datum(name)
    for w in weyl_enumerate(datum):
        assert (w.mat_points, w.mat_roots, w.mat_points_inv) == word_matrices(datum, w.word)


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "BC2", "A1xA2"])
def test_elements_are_equal_exactly_when_their_point_matrices_are(name):
    """Equality and hash read the Cartan matrix and w.rho^vee, not the word:
    two elements of one Cartan matrix, of reduced words or not, are equal
    exactly when their point matrices are, and equal ones hash alike."""
    datum = build_root_datum(name)
    group = weyl_enumerate(datum)
    rng = random.Random(7)
    words = [w.word for w in group]
    words += [tuple(rng.randrange(datum.rank) for _ in range(rng.randrange(9))) for _ in range(40)]
    elements = [WeylElement(datum, word) for word in words]
    points = [word_matrices(datum, word)[0] for word in words]
    for u, p in zip(elements, points):
        for v, q in zip(elements, points):
            assert (u == v) == (p == q), (u.word, v.word)
            if u == v:
                assert hash(u) == hash(v)
    assert len(set(elements)) == len(group) == len(set(points))


def test_elements_of_data_compare_by_cartan_matrix():
    """The identities of A2 and B2 have one point matrix but are not equal,
    while an explicit B2 with the catalogue's Cartan matrix has the same
    elements."""
    a2, b2 = build_root_datum("A2"), build_root_datum("B2")
    assert WeylElement(a2, ()).mat_points == WeylElement(b2, ()).mat_points
    assert WeylElement(a2, ()) != WeylElement(b2, ())
    roots = [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [1, -1], [-1, 1]]
    explicit = build_root_datum(roots, basis=[6, 2])
    assert explicit.cartan == b2.cartan
    assert set(weyl_enumerate(explicit)) == set(weyl_enumerate(b2))


def test_enumeration_order_is_breadth_first():
    """`weyl_enumerate` lists the elements in the order its walk meets them:
    by nondecreasing length, each word a letter k followed by the word of
    an element listed before it."""
    for name in ["A3", "B3", "D4"]:
        group = weyl_enumerate(build_root_datum(name))
        seen = set()
        for w in group:
            assert not w.word or w.word[1:] in seen
            seen.add(w.word)
        lengths = [w.length for w in group]
        assert lengths == sorted(lengths)


def test_weyl_action_compatible_with_pairing():
    datum = build_root_datum("B2")
    weyl = weyl_enumerate(datum)
    x = (Q(1, 3), Q(-2, 5))
    for w in weyl:
        for a in datum.roots:
            assert datum.pairing(w.apply_root(a), w.apply_point(x)) == datum.pairing(a, x)


@pytest.mark.parametrize("name", ["A2", "B3", "G2", "BC2", "A1xA2", "D4"])
def test_weyl_inverse_matrices_match_rational_inverse(name):
    group = weyl_enumerate(build_root_datum(name))
    n = group.datum.rank
    elements = list(group) + group.subgroup_elements(range(0, n, 2))
    for w in elements:
        assert w.mat_points_inv == la.inverse(w.mat_points)
        assert la.mat_mul(w.mat_points, w.mat_points_inv) == la.identity(n)


def test_word_lengths_start_at_identity():
    weyl = weyl_enumerate(build_root_datum("A2"))
    lengths = sorted(w.length for w in weyl)
    assert lengths == [0, 1, 1, 2, 2, 3]


@pytest.mark.parametrize("name", RANK4_CATALOGUE)
def test_length_counts_the_roots_made_negative(name):
    """The enumerated words are reduced, so each element's length is the
    length of its word; an unreduced word gets the length of the element
    it equals, whatever its own length."""
    group = weyl_enumerate(build_root_datum(name))
    assert all(w.length == len(w.word) for w in group)
    reduced = {w: len(w.word) for w in group}
    rng = random.Random(len(group))
    for _ in range(40):
        word = tuple(rng.randrange(group.datum.rank) for _ in range(rng.randint(0, 12)))
        w = WeylElement(group.datum, word)
        assert w.length == reduced[w], word


def test_unreduced_words_have_the_length_of_their_element():
    a2 = build_root_datum("A2")
    assert WeylElement(a2, (0, 0)) == WeylElement(a2, ())
    assert WeylElement(a2, (0, 0)).length == 0
    assert WeylElement(a2, (0, 1, 0, 1)).length == 2  # (s1 s2)^-1 = s2 s1
    assert WeylElement(a2, (0, 1, 0, 1, 0, 1)).length == 0
    assert WeylElement(build_root_datum("BC2"), (0, 1, 0, 1)).length == 4  # w0


@pytest.mark.parametrize(
    "word,error,message",
    [
        ((-1,), DimensionMismatch, r"^word \(-1,\) has a letter past rank 2$"),
        ((0, 2), DimensionMismatch, r"^word \(0, 2\) has a letter past rank 2$"),
        ((True,), TypeMismatch, r"^letter True of word \(True,\) is not an int$"),
        ((0, 1.0), TypeMismatch, r"^letter 1\.0 of word \(0, 1\.0\) is not an int$"),
        (("0",), TypeMismatch, r"^letter '0' of word \('0',\) is not an int$"),
        (None, TypeMismatch, r"^word None is not a sequence of letters$"),
        (5, TypeMismatch, r"^word 5 is not a sequence of letters$"),
    ],
)
def test_weyl_words_are_read_letter_by_letter(word, error, message):
    """A letter is an int (a bool is not) indexing a simple reflection; a
    letter past the rank, or a negative one, is read nowhere."""
    a2 = build_root_datum("A2")
    with pytest.raises(error, match=message):
        WeylElement(a2, word)
    assert WeylElement(a2, [1, 0]).word == (1, 0)


def test_components_examples():
    a3 = build_root_datum("A3")
    assert components(a3, {0, 2}) == [frozenset({0}), frozenset({2})]
    a2 = build_root_datum("A2")
    assert components(a2, {0, 1}) == [frozenset({0, 1})]
    aa = build_root_datum("A1xA1")
    assert components(aa, {0, 1}) == [frozenset({0}), frozenset({1})]


def test_orthogonal_complement_examples():
    a2 = build_root_datum("A2")
    assert orthogonal_complement(a2, {0}) == frozenset()
    a3 = build_root_datum("A3")
    assert orthogonal_complement(a3, {0}) == frozenset({2})
    assert orthogonal_complement(a3, set()) == frozenset({0, 1, 2})


@pytest.mark.parametrize("name", RANK4_CATALOGUE + ["B4", "D5"])
def test_components_and_complements_from_bitsets_match_the_cartan_entries(name):
    """On every subset of the basis: the components, by least index, are
    the classes of the pairs joined by a nonzero Cartan entry inside the
    subset, and the complement is the roots with a zero entry at each."""
    datum = build_root_datum(name)
    cartan, n = datum.cartan, datum.rank
    for bits in range(1 << n):
        S = {i for i in range(n) if bits >> i & 1}
        classes = {i: {i} for i in S}
        for i in S:
            for j in S:
                if cartan[i][j] and classes[i] is not classes[j]:
                    classes[i] |= classes[j]
                    for k in classes[j]:
                        classes[k] = classes[i]
        want = sorted({frozenset(c) for c in classes.values()}, key=min)
        assert components(datum, S) == want
        perp = frozenset(j for j in range(n) if all(cartan[j][i] == 0 for i in S))
        assert orthogonal_complement(datum, S) == perp


def test_diagram_subset_type():
    a3 = build_root_datum("A3")
    ds = DiagramSubset(a3, frozenset({0, 2}))
    assert ds.components == (frozenset({0}), frozenset({2}))
    assert ds.perp == frozenset()
    assert not ds.perp & ds.indices


def test_explicit_list_roundtrip():
    datum = build_root_datum([[1, 0], [-1, 0], [0, 1], [0, -1]], basis=[0, 2])
    datum.validate()
    assert datum.rank == 2
    assert len(datum.roots) == 4
    assert datum.essential
    assert len(datum.diagram_components) == 2


def test_explicit_list_rejections():
    with pytest.raises(NonRootSystem):
        build_root_datum([[1, 0], [0, 1]], basis=[0, 1])  # not closed under negation
    with pytest.raises(NonRootSystem):
        build_root_datum([[1, 0], [-1, 0], [Q(1, 2), 0], [Q(-1, 2), 0]], basis=[0])
    with pytest.raises(NonRootSystem):
        build_root_datum("Z9")


EXPLICIT_REJECTIONS = {
    "empty list": ([], [0]),
    "mixed dimensions": ([[1, 0], [-1]], [0]),
    "zero vector": ([[1], [-1], [0]], [0]),
    "dependent basis": ([[1, 0], [-1, 0], [2, 0], [-2, 0]], [0, 2]),
    "mixed-sign coefficients": (  # B2 over the orthogonal basis e1, e2
        [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [1, -1], [-1, 1]],
        [0, 2],
    ),
    "non-integral Cartan pairing": ([[1, 0], [-1, 0], [1, 3], [-1, -3]], [0, 2]),
    "not closed under reflections": (  # A2 without e1 - e3
        [[1, -1, 0], [-1, 1, 0], [0, 1, -1], [0, -1, 1]],
        [0, 2],
    ),
    "non-integral pairing": ([[1], [-1], [3], [-3]], [0]),  # <a, (3a)^vee> = 2/3
    "A2 with every root doubled": (  # <a1, (2 a2)^vee> = -1/2
        [[1, -1, 0], [-1, 1, 0], [0, 1, -1], [0, -1, 1], [1, 0, -1], [-1, 0, 1],
         [2, -2, 0], [-2, 2, 0], [0, 2, -2], [0, -2, 2], [2, 0, -2], [-2, 0, 2]],
        [0, 2],
    ),
    "B2 with its long roots doubled": (  # <e2, (2 (e1 - e2))^vee> = -1/2
        [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [1, -1], [-1, 1],
         [2, 2], [-2, -2], [2, -2], [-2, 2]],
        [6, 2],
    ),
}


@pytest.mark.parametrize("case", sorted(EXPLICIT_REJECTIONS))
def test_explicit_lists_that_are_not_root_systems_are_rejected(case):
    roots, basis = EXPLICIT_REJECTIONS[case]
    with pytest.raises(NonRootSystem):
        build_root_datum(roots, basis=basis)


def _without(roots, *dropped):
    return tuple(a for a in roots if a not in dropped)


@pytest.mark.parametrize(
    "name,change,message",
    [
        ("A2", lambda r: r + r[:1], "^duplicate roots$"),
        ("A2", lambda r: ((0, 0),) + r, "^zero is not a root$"),
        ("A2", lambda r: ((1, 1),) + _without(r, (1, 1), (-1, -1)), "not closed under negation"),
        ("A2", lambda r: ((1, -1), (-1, 1)) + r, "has mixed signs"),
    ],
    ids=["duplicate root", "zero root", "missing negative", "mixed signs"],
)
def test_validate_rejects_bad_root_sets(name, change, message):
    datum = build_root_datum(name)
    with pytest.raises(NonRootSystem, match=message):
        replace(datum, roots=change(datum.roots)).validate()


def test_validate_rejects_a_multipliable_root_without_its_double():
    datum = replace(build_root_datum("A1"), multipliable=frozenset({(1,)}))
    with pytest.raises(NonRootSystem, match="flagged multipliable but 2a is not a root"):
        datum.validate()


def _a2_without(*dropped):
    return _without(build_root_datum("A2").roots, *dropped)


@pytest.mark.parametrize(
    "name,changes,message",
    [
        ("A2", dict(cartan=((2, -1), (-1, 0))), "Cartan entry 0 at a2, a2 is not 2"),
        ("A2", dict(simple_lengths=(Q(2), Q(0))), "squared length 0 of a2 is not positive"),
        (  # the all-pairs oracle divides by a zero squared length here
            "B2",
            dict(cartan=((2, -2), (-2, 2))),
            "lengths do not fit the Cartan matrix at a1, a2",
        ),
        ("A2", dict(roots=_a2_without((1, 0), (-1, 0))), "simple root (1, 0) is not a root"),
        (
            "A2",
            dict(roots=_a2_without((1, 1), (-1, -1))),
            "reflection s_(0, 1) does not preserve roots at (-1, 0)",
        ),
        (
            "A1",
            dict(roots=((-3,), (-1,), (1,), (3,))),
            "root (-3,) is not conjugate to a simple root or its double",
        ),
        (
            "BC1",
            dict(
                roots=((-4,), (-2,), (-1,), (1,), (2,), (4,)),
                multipliable=frozenset({(-2,), (-1,), (1,), (2,)}),
            ),
            "root (-4,) is not conjugate to a simple root or its double",
        ),
        ("A2", dict(roots=_a2_without() + ((1,), (-1,))), "root (1,) does not have 2 coefficients"),
        (
            "A2",
            dict(roots=_a2_without() + ((1, 1, 0), (-1, -1, 0))),
            "root (1, 1, 0) does not have 2 coefficients",
        ),
        ("A2", dict(simple_lengths=(Q(2),)), "simple lengths have 1 entries, not 2"),
        ("A2", dict(simple_lengths=(Q(2),) * 3), "simple lengths have 3 entries, not 2"),
        ("A2", dict(cartan=((2, -1),)), "Cartan matrix is not 2 rows of 2 entries"),
        ("A2", dict(cartan=((2, -1), (-1,))), "Cartan matrix is not 2 rows of 2 entries"),
        ("A2", dict(cartan=((2, -1, 0), (-1, 2, 0))), "Cartan matrix is not 2 rows of 2 entries"),
        (  # the shapes are checked before the roots
            "A2",
            dict(cartan=((2,),), roots=((1, 0),) * 2),
            "Cartan matrix is not 2 rows of 2 entries",
        ),
    ],
    ids=[
        "Cartan diagonal", "length", "lengths fit", "simple root", "closure", "3a", "4a",
        "short root", "long root", "1 length", "3 lengths", "1 Cartan row", "short Cartan row",
        "long Cartan rows", "shapes first",
    ],
)
def test_validate_names_the_failing_axiom(name, changes, message):
    with pytest.raises(NonRootSystem) as err:
        replace(build_root_datum(name), **changes).validate()
    assert str(err.value) == message


@pytest.mark.parametrize("name,long", [("A2", False), ("B2", True)])
def test_validate_rejects_a_doubled_simple_root_with_an_odd_cartan_entry(name, long):
    """A2 with every root doubled, and B2 with its long roots doubled: each
    root is a simple root or its double up to W, but <a_j, (2 a_k)^vee> is
    cartan[j][k] / 2, which is -1/2 here."""
    datum = build_root_datum(name)
    top = max(map(datum.length_sq, datum.roots))
    halves = {a for a in datum.roots if not long or datum.length_sq(a) == top}
    doubled = replace(
        datum,
        roots=datum.roots + tuple(tuple(2 * c for c in a) for a in halves),
        multipliable=frozenset(halves),
    )
    with pytest.raises(NonRootSystem, match="^non-integral Cartan pairing -1/2 for "):
        doubled.validate()
    with pytest.raises(NonRootSystem, match="non-integral Cartan pairing"):
        reference_validate(doubled)


def test_validate_requires_every_root_with_a_double_root_multipliable():
    """BC2 with no multipliable root would read as reduced."""
    bc2 = build_root_datum("BC2")
    for multipliable, diff in [
        (frozenset(), [(-1, -1), (0, -1), (0, 1), (1, 1)]),
        (bc2.multipliable - {(0, 1)}, [(0, 1)]),
    ]:
        with pytest.raises(NonRootSystem) as err:
            replace(bc2, multipliable=multipliable).validate()
        assert str(err.value) == f"multipliable roots are not the roots a with 2a a root: {diff}"


# The classes in which `RootDatum.validate` may reject what the all-pairs
# oracle accepts: the oracle never reads the Cartan diagonal, accepts lengths
# that the pairing formula alone tolerates, takes any roots as the simple
# ones, and only asks that flagged roots have doubles.
STRICTER = ("is not 2", "is not positive", "do not fit", "simple root", "multipliable roots")


def test_validate_agrees_with_the_all_pairs_oracle_on_perturbed_data():
    """Whatever validate accepts the oracle accepts; what the oracle accepts
    validate rejects only in the STRICTER classes, and where the oracle
    divides by a zero squared length validate raises NonRootSystem."""
    rng = random.Random(18)
    outcomes = Counter()
    for _ in range(600):
        datum = perturbed_root_datum(rng)
        try:
            datum.validate()
            new = None
        except NonRootSystem as err:
            new = str(err)
        try:
            reference_validate(datum)
            old = None
        except (NonRootSystem, ZeroDivisionError) as err:
            old = type(err).__name__
        if new is None:
            assert old is None, datum
        elif old is None:
            assert any(s in new for s in STRICTER), (datum, new)
        outcomes[new is None, old] += 1
    # accepted by both, rejected by both, stricter, and the oracle dividing by zero
    assert len(outcomes) == 4 and min(outcomes.values()) > 20, outcomes


def test_explicit_inessential_flag():
    datum = build_root_datum([[1, 0], [-1, 0]], basis=[0])
    assert not datum.essential
    assert datum.input_rank == 2


@pytest.mark.parametrize("name", ["G2", "BC3", "F4", "A1xA2"])
def test_coroot_pairing_matches_inner_product_formula(name):
    datum = build_root_datum(name)
    for a in datum.roots:
        for b in datum.roots:
            c = coroot_pairing(datum, a, b)
            assert type(c) is int
            assert c == 2 * datum.inner(a, b) / datum.length_sq(b)


@pytest.mark.parametrize("lengths", [(2, 3), (2, 6), (3, 2), (4, 2)])
def test_validate_reports_the_first_bad_pairing(lengths):
    """Root data whose lengths do not fit their Cartan matrix: the all-pairs
    oracle rejects them by a pairing, and validate names the first pair of
    simple roots whose lengths do not fit the matrix."""
    a2 = build_root_datum("A2")
    datum = RootDatum(
        name="bad",
        rank=2,
        cartan=a2.cartan,
        simple_lengths=tuple(Q(x) for x in lengths),
        roots=a2.roots,
        multipliable=frozenset(),
    )
    with pytest.raises(NonRootSystem, match="pairing|reflection"):
        reference_validate(datum)
    with pytest.raises(NonRootSystem) as err:
        datum.validate()
    assert str(err.value) == "lengths do not fit the Cartan matrix at a1, a2"


# The squared lengths of the simple roots, family by family (Bourbaki's
# plates, short simple roots at 2): an oracle for `_simple_lengths`, which
# derives them from the Cartan matrix alone.
FAMILY_LENGTHS = {
    "A": lambda n: [2] * n,
    "B": lambda n: [4] * (n - 1) + [2],
    "C": lambda n: [2] * (n - 1) + [4],
    "D": lambda n: [2] * n,
    "G": lambda n: [2, 6],
    "F": lambda n: [4, 4, 2, 2],
    "BC": lambda n: [4] * (n - 1) + [2],
}


def _factors(name):
    """(family, rank, first simple root) of each factor of a catalogue name."""
    out, offset = [], 0
    for part in name.split("x"):
        family = part.rstrip("0123456789")
        n = int(part[len(family):])
        out.append((family, n, offset))
        offset += n
    return out


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_catalogue_simple_lengths_match_the_family_tables(name):
    datum = build_root_datum(name)
    expected = [Q(x) for fam, n, _ in _factors(name) for x in FAMILY_LENGTHS[fam](n)]
    assert list(datum.simple_lengths) == expected
    assert all(type(x) is Q for x in datum.simple_lengths)


@pytest.mark.parametrize("name", [n for n in CATALOGUE_NAMES if "BC" in n])
def test_bc_multipliable_roots_are_the_short_roots_of_each_bc_factor(name):
    datum = build_root_datum(name)
    short = set()
    for fam, n, first in _factors(name):
        if fam == "BC":
            factor = datum.levi_roots(range(first, first + n))
            least = min(datum.length_sq(a) for a in factor)
            short |= {a for a in factor if datum.length_sq(a) == least}
    assert datum.multipliable == short
    assert {tuple(2 * c for c in a) for a in short} <= datum.root_set


EXPLICIT_LISTS = {
    "A1xA1": ([[1, 0], [-1, 0], [0, 1], [0, -1]], [0, 2]),
    "B2": ([[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1], [1, -1], [-1, 1]], [6, 2]),
    "A1 in a plane": ([[1, 0], [-1, 0]], [0]),
    "BC1": ([[1], [-1], [2], [-2]], [0]),
    "3 A1 x 3 B2": (
        [[3, 0, 0], [-3, 0, 0], [0, 3, 0], [0, -3, 0], [0, 0, 3], [0, 0, -3],
         [0, 3, 3], [0, -3, -3], [0, 3, -3], [0, -3, 3]],
        [0, 8, 4],
    ),
    "BC1 x A1 scaled": ([[Q(1, 2), 0], [Q(-1, 2), 0], [1, 0], [-1, 0], [0, 5], [0, -5]], [0, 4]),
}


@pytest.mark.parametrize("case", sorted(EXPLICIT_LISTS))
def test_explicit_simple_lengths_are_the_euclidean_ones_rescaled(case):
    """Per diagram component, the Euclidean squared lengths scaled so that
    the shortest simple root has 2."""
    roots, basis = EXPLICIT_LISTS[case]
    datum = build_root_datum(roots, basis=basis)
    euclid = [sum(Q(c) ** 2 for c in roots[i]) for i in basis]
    expected = list(euclid)
    for comp in datum.diagram_components:
        least = min(euclid[i] for i in comp)
        for i in comp:
            expected[i] = 2 * euclid[i] / least
    assert list(datum.simple_lengths) == expected
    assert all(type(x) is Q for x in datum.simple_lengths)


@pytest.mark.parametrize(
    "spec,basis", [("BC3", None), ("C3xBC2", None), EXPLICIT_LISTS["B2"]], ids=repr
)
def test_a_build_constructs_one_datum(monkeypatch, spec, basis):
    made = []
    init = RootDatum.__init__
    monkeypatch.setattr(RootDatum, "__init__", lambda self, *a, **k: made.append(init(self, *a, **k)))
    build_root_datum(spec, basis)
    assert len(made) == 1


@pytest.mark.parametrize("name", ["A3", "B3", "G2", "BC2", "A1xA2"])
def test_levi_roots_are_the_roots_supported_on_the_subset(name):
    datum = build_root_datum(name)
    for bits in range(1 << datum.rank):
        subset = [i for i in range(datum.rank) if bits >> i & 1]
        expected = tuple(
            a for a in datum.roots if all(i in subset for i, c in enumerate(a) if c)
        )
        assert datum.levi_roots(subset) == expected
        assert datum.levi_roots(frozenset(subset)) == expected
    with pytest.raises(NonRootSystem):
        datum.levi_roots([datum.rank])
