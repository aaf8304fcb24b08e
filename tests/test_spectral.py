from fractions import Fraction

import numpy as np
import pytest

from aldous.graphs import (
    WeightedGraph,
    complete_graph,
    quasi_complete_graph,
    quasi_complete_weights,
    random_graph,
    star_graph,
)
from aldous import partitions
from aldous.partitions import Partition, content_matrix, partitions_of
from aldous import spectral
from aldous.spectral import (
    complete_graph_eigenvalue,
    irrep_spectra,
    laplacian_gap,
    multiset_distance,
    nested_star_extremes,
    nested_star_lambda1_scaled,
    quasi_complete_spectrum,
    remark_weights,
    spectra,
    spectrum,
    subset_sum_spectrum,
)
from aldous.symrep import DimensionCapExceeded, delta_matrices, delta_matrix


def test_spectrum_small_examples():
    assert spectrum(np.diag([3.0, 1.0, 2.0])) == (1.0, 2.0, 3.0)
    vals = spectrum(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert multiset_distance(vals, [0.0, 2.0]) < 1e-12
    vals = spectrum(delta_matrix(Partition([2, 1, 1]), star_graph(4, 4)))
    assert multiset_distance(vals, [2, 5, 5]) < 1e-10


def test_spectrum_rejects_non_symmetric():
    with pytest.raises(ValueError):
        spectrum(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        spectrum(np.ones((2, 3)))


def test_spectrum_rejects_non_finite():
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="finite"):
            spectrum(np.array([[bad]]))
        with pytest.raises(ValueError, match="finite"):
            spectrum(np.array([[1.0, bad], [bad, 1.0]]))


def test_spectrum_accuracy_against_random_matrices():
    rng = np.random.default_rng(2)
    for n in (2, 5, 17, 40):
        m = rng.normal(size=(n, n))
        m = m + m.T
        ours = np.array(spectrum(m))
        ref = np.linalg.eigvalsh(m)
        assert np.abs(ours - ref).max() < 1e-10 * np.linalg.norm(m)


def test_spectrum_zero_matrix():
    assert spectrum(np.zeros((3, 3))) == (0.0, 0.0, 0.0)


def test_spectra_equal_spectrum_per_slice():
    for n in range(2, 8):
        graphs = [random_graph(n, 70 + s) for s in range(4)] + [star_graph(n, n)]
        for shape in partitions_of(n):
            found = spectra(delta_matrices(shape, graphs))
            assert found == [spectrum(delta_matrix(shape, g)) for g in graphs]
    rng = np.random.default_rng(3)
    stack = rng.normal(size=(6, 9, 9))
    stack = stack + stack.swapaxes(1, 2)
    assert spectra(stack) == [spectrum(m) for m in stack]


def test_spectra_rejects_bad_stacks():
    good = np.stack([np.eye(3), 2 * np.eye(3)])
    assert spectra(good) == [(1.0,) * 3, (2.0,) * 3]
    asymmetric = good.copy()
    asymmetric[1, 0, 2] = 0.5
    with pytest.raises(ValueError, match="symmetric"):
        spectra(asymmetric)
    # the tolerance is per slice: a large slice does not excuse a small one
    scaled = np.stack([1e8 * np.eye(3), np.eye(3)])
    scaled[1, 0, 1] = 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        spectra(scaled)
    for bad in (np.inf, np.nan):
        broken = good.copy()
        broken[1, 1, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            spectra(broken)
    for shape in ((0, 3, 3), (2, 3, 4), (3, 3)):
        with pytest.raises(ValueError):
            spectra(np.zeros(shape))


def test_irrep_spectra_over_several_stacks(monkeypatch):
    shape = Partition([4, 2, 1])  # dim 35: 13 graphs per stack
    graphs = [random_graph(7, 900 + s) for s in range(120)]
    graphs.append(quasi_complete_graph(7, [1, 0, 2, 0, 0, 1]))
    singles = [spectrum(delta_matrix(shape, g)) for g in graphs]
    assert spectral.STACK_FLOATS // 35 ** 2 < len(graphs)
    assert irrep_spectra(shape, graphs) == singles
    # stacks of 2 leave a stack of 1 at the end
    monkeypatch.setattr(spectral, "STACK_FLOATS", 2 * 35 ** 2)
    assert irrep_spectra(shape, graphs) == singles
    assert irrep_spectra(shape, []) == []
    with pytest.raises(DimensionCapExceeded):
        irrep_spectra(shape, graphs, dim_cap=34)


def star(n, k):
    """The nested-star weighting of the star joining k to 1..k-1."""
    a = [0] * (n - 1)
    a[k - 2] = 1
    return a


def test_star_spectrum_examples():
    spec = quasi_complete_spectrum(Partition([2, 1, 1]), star(4, 4))
    assert spec == (2, 5, 5)
    for n in range(4, 9):
        assert quasi_complete_spectrum(Partition([2, 2] + [1] * (n - 4), ),
                                       star(n, n))[0] == n - 1
        assert quasi_complete_spectrum(Partition([2] + [1] * (n - 2)),
                                       star(n, n))[0] == n - 2
    for n in range(2, 7):
        for k in range(2, n + 1):
            assert quasi_complete_spectrum(Partition([n]), star(n, k)) == (0,)
    with pytest.raises(ValueError):
        quasi_complete_spectrum(Partition([3, 1]), star(5, 5))


def test_star_spectrum_matches_eigensolver():
    for n in range(4, 7):
        for shape in partitions_of(n):
            for k in range(2, n + 1):
                exact = quasi_complete_spectrum(shape, star(n, k))
                numeric = spectrum(delta_matrix(shape, star_graph(n, k)))
                assert multiset_distance(exact, numeric) < 1e-8


def test_quasi_complete_unit_weights_complete_graph():
    for n in range(3, 8):
        spec = quasi_complete_spectrum(Partition([n - 1, 1]), [1] * (n - 1))
        assert all(v == n for v in spec)


def test_quasi_complete_indicator_reduces_to_star():
    # the star at m acts by (m-1) + row - col of the box holding label m
    for n in range(3, 7):
        for shape in partitions_of(n):
            for m in range(2, n + 1):
                assert (
                    quasi_complete_spectrum(shape, star(n, m))
                    == tuple(sorted(m - 1 - int(c) for c in content_matrix(shape)[:, m - 1]))
                )


def enumerated_spectrum(shape, a):
    """wt - sum_k a_k * content(box of k), tableau by tableau, in Fractions."""
    weights = [Fraction(x) for x in a]
    wt = sum(w * k for k, w in enumerate(weights, start=1))
    return tuple(sorted(wt - sum(w * int(c) for w, c in zip(weights, row[1:]))
                        for row in content_matrix(shape)))


def test_quasi_complete_recursion_matches_tableau_enumeration():
    # the same multiset, value and multiplicity, as listing every tableau
    rng = np.random.default_rng(31)
    for n in range(1, 10):
        weightings = [
            [int(x) for x in rng.integers(0, 3, size=n - 1)],  # zeros included
            [Fraction(int(p), int(q)) for p, q in rng.integers(1, 9, size=(n - 1, 2))],
            [float(x) for x in rng.random(n - 1)],
        ] + [star(n, k) for k in range(2, n + 1)]
        for a in weightings:
            for shape in partitions_of(n):
                got = quasi_complete_spectrum(shape, a)
                assert type(got) is tuple
                assert all(type(v) is Fraction for v in got)
                assert got == enumerated_spectrum(shape, a)


def test_quasi_complete_spectrum_keeps_the_tableau_cap():
    shape = Partition([6, 5, 4, 3, 2, 1])  # 1100742656 tableaux
    assert partitions.num_standard_tableaux(shape) > partitions.TABLEAU_CAP
    with pytest.raises(ValueError) as listed:
        content_matrix(shape)
    with pytest.raises(ValueError) as recursed:
        quasi_complete_spectrum(shape, [1] * (shape.n - 1))
    assert str(recursed.value) == str(listed.value)
    assert "above cap" in str(listed.value)


def test_quasi_complete_matches_eigensolver():
    rng = np.random.default_rng(6)
    for n in range(3, 7):
        for _ in range(5):
            a = rng.random(n - 1)
            graph = quasi_complete_graph(n, a)
            for shape in partitions_of(n):
                formula = quasi_complete_spectrum(shape, list(a))
                numeric = spectrum(delta_matrix(shape, graph))
                assert multiset_distance(formula, numeric) < 1e-8


def test_nested_star_extremes_match_the_full_spectrum():
    # the chain runs in integers over one denominator per weighting; raw
    # floats, dyadic ones included, convert exactly
    rng = np.random.default_rng(21)
    mixed = (Fraction(1, 3), 2.0 ** -60, 0.1, 2, np.float64(0.75))
    for n in range(1, 10):
        weightings = [
            remark_weights(n),
            [int(x) for x in rng.integers(0, 3, size=n - 1)],  # zeros included
            quasi_complete_weights(quasi_complete_graph(n, rng.random(n - 1))),
            [float(x) for x in rng.random(n - 1)],
            [2.0 ** -(60 + 3 * k) for k in range(n - 1)],
            [mixed[k % len(mixed)] for k in range(n - 1)],
        ]
        for a in weightings:
            for shape in partitions_of(n):
                full = enumerated_spectrum(shape, a)
                got = nested_star_extremes(shape, a)
                assert all(type(x) is Fraction for x in got)
                assert got == (full[0], full[-1])
                assert quasi_complete_spectrum(shape, a) == full


def test_nested_star_extremes_equal_weights_of_any_type_agree():
    for shape in partitions_of(3):
        assert (nested_star_extremes(shape, [0.5, 0.25])
                == nested_star_extremes(shape, [Fraction(1, 2), Fraction(1, 4)]))


def test_nested_star_lambda1_scaled_orders_like_lambda1():
    rng = np.random.default_rng(8)
    for n in range(1, 8):
        shapes = partitions_of(n)
        for a in ([float(x) for x in rng.random(n - 1)], remark_weights(n),
                  [Fraction(int(x), 1000) for x in rng.integers(0, 1001, n - 1)]):
            (scale,), rows = nested_star_lambda1_scaled(shapes, [a])
            numerators = [row[0] for row in rows]
            assert all(type(x) is int for x in [scale, *numerators])
            for shape, numerator in zip(shapes, numerators):
                assert Fraction(numerator, scale) == nested_star_extremes(shape, a)[0]
    with pytest.raises(ValueError, match="size 3"):
        nested_star_lambda1_scaled([Partition([3]), Partition([2, 2])], [[1, 1]])


def test_nested_star_lambda1_scaled_walks_every_weighting_at_once():
    # one call over many weightings of every kind gives, weighting by
    # weighting, the one-column walk's lambda_1 times the weighting's scale
    rng = np.random.default_rng(31)
    for n in range(1, 9):
        shapes = partitions_of(n)
        weightings = [
            *([float(x) for x in rng.random(n - 1)] for _ in range(3)),
            *([Fraction(int(x), 1000) for x in rng.integers(0, 1001, n - 1)]
              for _ in range(3)),
            [0] * (n - 1),
            *([int(j == k) for j in range(2, n + 1)] for k in range(2, n + 1)),
            [1] * (n - 1),
            remark_weights(n),
        ]
        scales, rows = nested_star_lambda1_scaled(shapes, weightings)
        assert len(scales) == len(weightings) and len(rows) == len(shapes)
        for shape, row in zip(shapes, rows):
            assert len(row) == len(weightings)
            for a, scale, numerator in zip(weightings, scales, row):
                assert type(scale) is int and type(numerator) is int
                assert Fraction(numerator, scale) == nested_star_extremes(shape, a)[0]


def test_nested_star_lambda1_scaled_stays_exact_past_int64():
    # the separator's scale n^(2n) passes 2^63 from n = 10 on
    for n in (10, 11, 12):
        shapes = partitions_of(n)
        separator = remark_weights(n)
        scales, rows = nested_star_lambda1_scaled(shapes, [separator, [1] * (n - 1)])
        assert scales == [n ** (2 * n), 1] and scales[0] > 2 ** 63
        for shape, row in zip(shapes, rows):
            assert all(type(x) is int for x in row)
            assert Fraction(row[0], scales[0]) == nested_star_extremes(shape, separator)[0]
            if n < 12:  # the full-spectrum recursion, independent of _chains
                assert (Fraction(row[0], scales[0])
                        == quasi_complete_spectrum(shape, separator)[0])
            assert row[1] == complete_graph_eigenvalue(shape)
        # the separator orders lambda_1 strictly by lex, by gaps below 2^-63
        lam1 = sorted(rows, key=lambda row: row[0])
        assert all(a[0] < b[0] for a, b in zip(lam1, lam1[1:]))


def test_nested_star_lambda1_scaled_rejects_bad_rows():
    shapes = [Partition([2, 2]), Partition([3, 1])]
    good = [1, Fraction(1, 2), 0.25]
    with pytest.raises(ValueError, match="need 3 weights, got 2"):
        nested_star_lambda1_scaled(shapes, [good, [1, 1]])
    with pytest.raises(ValueError, match="weights must be nonnegative"):
        nested_star_lambda1_scaled(shapes, [good, [1, -1, 1]])
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="weights must be finite"):
            nested_star_lambda1_scaled(shapes, [good, good, [1, bad, 1]])
        with pytest.raises(ValueError, match="weights must be finite"):
            nested_star_lambda1_scaled(shapes, [[1, -1, 1], [bad, 1, 1]])
    with pytest.raises(ValueError, match="mixed size"):
        nested_star_lambda1_scaled([*shapes, Partition([3])], [good])
    # no weightings: one empty row per shape
    assert nested_star_lambda1_scaled(shapes, [])[0] == []
    assert [len(row) for row in nested_star_lambda1_scaled(shapes, [])[1]] == [0, 0]


def test_nested_star_extremes_share_one_table_across_threads():
    # callers may evaluate shapes of one weighting on threads that fill
    # the same memo table; a fresh weighting makes them race on it
    import sys
    from concurrent.futures import ThreadPoolExecutor

    weights = [Fraction(k, 7) for k in range(1, 8)]
    shapes = partitions_of(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(lambda s: nested_star_extremes(s, weights),
                                shapes * 8, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    full = {s: quasi_complete_spectrum(s, weights) for s in shapes}
    for shape, extremes in zip(shapes * 8, got):
        assert extremes == (full[shape][0], full[shape][-1])


def test_nested_star_extremes_rejects_bad_weights():
    for evaluate in (nested_star_extremes, quasi_complete_spectrum):
        with pytest.raises(ValueError, match="need 3 weights"):
            evaluate(Partition([2, 2]), [1, 1])
        with pytest.raises(ValueError, match="nonnegative"):
            evaluate(Partition([2, 2]), [1, -1, 1])
    for bad in (float("inf"), float("-inf"), float("nan")):
        for a in ([bad, 1.0], [Fraction(1, 2), bad]):
            with pytest.raises(ValueError, match="weights must be finite"):
                nested_star_extremes(Partition([2, 1]), a)
            with pytest.raises(ValueError, match="weights must be finite"):
                quasi_complete_spectrum(Partition([2, 1]), a)
            with pytest.raises(ValueError, match="weights must be finite"):
                nested_star_lambda1_scaled([Partition([2, 1])], [a])


def test_remark_weights_rank_by_lex():
    for n in range(2, 6):
        weights = remark_weights(n)
        assert weights[0] == Fraction(1, n**4)
        lam1 = {
            p: quasi_complete_spectrum(p, weights)[0]
            for p in partitions_of(n)
        }
        for alpha in partitions_of(n):
            for beta in partitions_of(n):
                if alpha.parts < beta.parts:
                    assert lam1[alpha] > lam1[beta]


def test_complete_graph_eigenvalue():
    for n in range(2, 9):
        assert complete_graph_eigenvalue(Partition([n - 1, 1])) == n
        assert complete_graph_eigenvalue(Partition([1] * n)) == n * (n - 1)
        assert complete_graph_eigenvalue(Partition([n])) == 0
    # scalar action confirmed by the eigensolver on the complete graph
    for shape in partitions_of(5):
        vals = spectrum(delta_matrix(shape, complete_graph(5)))
        scalar = complete_graph_eigenvalue(shape)
        assert all(abs(v - scalar) < 1e-9 for v in vals)


def test_hook_spectrum_examples():
    # the spectrum on the hook [n-k, 1^k] is the k-subset sums of the one
    # on [n-1, 1]
    def hook_spectrum(graph, k):
        base = spectrum(delta_matrix(Partition([graph.n - 1, 1]), graph))
        return subset_sum_spectrum(base, k)

    assert hook_spectrum(random_graph(5, 8), 0) == (0.0,)
    spec = hook_spectrum(complete_graph(3), 2)
    assert multiset_distance(spec, [6.0]) < 1e-10
    g = random_graph(5, 9)
    expected = spectrum(delta_matrix(Partition([3, 1, 1]), g))
    assert multiset_distance(hook_spectrum(g, 2), expected) < 1e-7


def test_laplacian_gap():
    for n in range(3, 8):
        assert abs(laplacian_gap(complete_graph(n)) - n) < 1e-9
    single = WeightedGraph.from_edges(4, [(1, 2, 1.0)])
    assert abs(laplacian_gap(single)) < 1e-12
    for seed in range(5):
        g = random_graph(6, 200 + seed)
        lam1 = spectrum(delta_matrix(Partition([5, 1]), g))[0]
        assert abs(laplacian_gap(g) - lam1) < 1e-9


def test_duality_and_trivial_bound():
    from aldous.partitions import conjugate

    for n in range(2, 7):
        g = random_graph(n, 300 + n)
        spectra = {
            shape: spectrum(delta_matrix(shape, g)) for shape in partitions_of(n)
        }
        for shape in partitions_of(n):
            lam_max = spectra[shape][-1]
            assert lam_max <= 2 * g.wt + 1e-9
            assert abs(lam_max - (2 * g.wt - spectra[conjugate(shape)][0])) < 1e-8


def test_zero_graph_spectra():
    zero = WeightedGraph(np.zeros((5, 5)))
    for shape in partitions_of(5):
        spec = spectrum(delta_matrix(shape, zero))
        assert spec[0] == 0.0 and spec[-1] == 0.0
    assert quasi_complete_spectrum(Partition([3, 2]), [0] * 4) == (
        Fraction(0),
    ) * 5


def test_spectrum_types():
    # numeric spectra are ascending tuples of Python floats, exact ones
    # ascending tuples of Fractions; [0] is lambda_1 and [-1] lambda_max
    s = spectrum(np.diag([3.0, 1.0, 2.0]))
    assert type(s) is tuple and all(type(v) is float for v in s)
    assert s[0] == 1.0 and s[-1] == 3.0 and len(s) == 3
    assert all(type(s) is tuple for s in spectra(np.stack([np.eye(2)] * 2)))
    shape, a = Partition([2, 1]), [Fraction(1, 3), 0.25]
    e = quasi_complete_spectrum(shape, a)
    assert type(e) is tuple and all(type(v) is Fraction for v in e)
    assert e == tuple(sorted(e)) and (e[0], e[-1]) == nested_star_extremes(shape, a)


def _tol_at_the_boundary(skew, norm):
    """The smallest tol with tol * norm >= skew."""
    tol = skew / norm
    while tol * norm < skew:
        tol = np.nextafter(tol, np.inf)
    while np.nextafter(tol, 0.0) * norm >= skew:
        tol = np.nextafter(tol, 0.0)
    return float(tol)


@pytest.mark.parametrize("skew", [2.0**-20, 1e-9, 3e-13, 1e-15])
def test_spectrum_symmetry_boundary_is_tol_times_the_frobenius_norm(skew):
    rng = np.random.default_rng(11)
    m = rng.random((5, 5))
    m = m + m.T
    m[1, 3] += skew
    found = float(np.abs(m - m.T).max())
    assert found > 0
    norm = float(np.linalg.norm(m, axis=(-2, -1)))
    tol = _tol_at_the_boundary(found, norm)
    below = float(np.nextafter(tol, 0.0))  # tol * norm just below the skew
    assert spectrum(m, tol=tol) == spectrum((m + m.T) / 2, tol=0.0)
    with pytest.raises(ValueError, match="symmetric"):
        spectrum(m, tol=below)


def _accepts(check, m, tol):
    try:
        check(m, tol)
    except ValueError:
        return False
    return True


def test_spectrum_and_spectra_agree_at_the_symmetry_boundary():
    # norm(m) and norm(m, axis=(-2, -1)) differ in the last bit here, so a
    # tol at either one's boundary tells the two checks apart unless both
    # take the norm the same way
    rng = np.random.default_rng(11)
    m = rng.random((5, 5))
    m = m + m.T
    m[1, 3] += 2.0**-20
    skew = float(np.abs(m - m.T).max())
    norms = {float(np.linalg.norm(m)), float(np.linalg.norm(m, axis=(-2, -1)))}
    assert len(norms) == 2
    for norm in norms:
        tol = _tol_at_the_boundary(skew, norm)
        for t in (tol, float(np.nextafter(tol, 0.0))):
            assert _accepts(spectrum, m, t) == _accepts(spectra, m[None], t), (norm, t)


def test_spectrum_symmetry_floor_for_tiny_matrices():
    # tol * ||m|| underflows, and the floor 1e-300 decides
    tiny = np.array([[0.0, 1e-301], [0.0, 0.0]])
    assert len(spectrum(tiny, tol=0.0)) == 2
    with pytest.raises(ValueError, match="symmetric"):
        spectrum(np.array([[0.0, 2e-300], [0.0, 0.0]]), tol=0.0)
    # an exactly symmetric matrix passes with tol 0, whatever its size
    assert len(spectrum(np.diag([1e300, 2.0]), tol=0.0)) == 2
    assert spectrum(np.zeros((0, 0))) == ()


def _spectrum_weightings():
    rng = np.random.default_rng(12)
    for n in (1, 2, 4, 6):
        yield n, [0] * (n - 1)
        yield n, rng.random(n - 1).tolist()
        yield n, [Fraction(int(x), 7) for x in rng.integers(0, 9, n - 1)]


@pytest.mark.parametrize("n, a", list(_spectrum_weightings()))
def test_quasi_complete_spectrum_and_the_suites_floats_share_one_expansion(n, a):
    from operator import truediv

    for shape in partitions_of(n):
        exact = quasi_complete_spectrum(shape, a)
        assert list(exact) == spectral._chain_spectrum(shape, a, Fraction)
        floats = spectral._chain_spectrum(shape, a, truediv)
        # the exact integer division rounds as float(Fraction) does
        assert [x.hex() for x in floats] == [float(x).hex() for x in exact]


def _rows(rng, count, width):
    return (rng.random((count, width)) * 4 - 1).tolist()


@pytest.mark.parametrize("width", [0, 1, 3, 8])
def test_multiset_distance_is_one_row_of_multiset_distances(width):
    rng = np.random.default_rng(width)
    xs, ys = _rows(rng, 6, width), _rows(rng, 6, width)
    if width:
        xs[2][0] = float("nan")
        ys[3] = list(reversed(xs[3]))
    found = spectral.multiset_distances(xs, ys)
    expected = [multiset_distance(x, y) for x, y in zip(xs, ys)]
    assert [d.hex() for d in found] == [d.hex() for d in expected]
    if width:
        assert np.isnan(found[2]) and found[3] == 0.0
    else:
        assert found == [0.0] * 6
    # rows of unequal length are infinitely far apart, whatever their values
    longer = _rows(rng, 6, width + 1)
    assert spectral.multiset_distances(xs, longer) == [float("inf")] * 6
    assert multiset_distance(xs[0], longer[0]) == float("inf")


def test_multiset_distances_does_not_broadcast_rows_of_unequal_length():
    assert spectral.multiset_distances([[1.0]], [[1.0, 2.0]]) == [float("inf")]
    assert spectral.multiset_distances([[1.0, 2.0]], [[1.0]]) == [float("inf")]


@pytest.mark.parametrize("width", [0, 1, 4, 7])
def test_subset_sum_spectrum_is_one_row_of_subset_sum_spectra(width):
    from itertools import combinations

    rng = np.random.default_rng(width)
    bases = _rows(rng, 5, width)
    for k in range(width + 2):
        found = spectral.subset_sum_spectra(bases, k)
        assert found.shape == (5, len(list(combinations(range(width), k))))
        for base, row in zip(bases, found.tolist()):
            # each subset summed left to right, as sum() adds it
            expected = sorted(sum(combo) for combo in combinations(base, k))
            assert [x.hex() for x in row] == [float(x).hex() for x in expected]
            assert subset_sum_spectrum(base, k) == tuple(row)
    assert subset_sum_spectrum(bases[0], width + 1) == ()
    for evaluate in (lambda: subset_sum_spectrum(bases[0], -1),
                     lambda: spectral.subset_sum_spectra(bases, -1)):
        with pytest.raises(ValueError, match="r must be non-negative"):
            evaluate()


@pytest.mark.parametrize("n", [2, 3, 6, 11])
def test_laplacian_gap_is_one_graph_of_laplacian_gaps(n):
    graphs = [random_graph(n, seed) for seed in range(5)] + [complete_graph(n)]
    stack = np.stack([graph.weights for graph in graphs])
    for graph, gap in zip(graphs, spectral.laplacian_gaps(stack)):
        # diag(row sums) - weights, solved on its own
        alone = spectrum(np.diag(graph.weights.sum(axis=1)) - graph.weights)[1]
        assert laplacian_gap(graph).hex() == gap.hex() == alone.hex()
    single = complete_graph(1)
    for evaluate in (lambda: laplacian_gap(single),
                     lambda: spectral.laplacian_gaps(single.weights[None])):
        with pytest.raises(IndexError, match="index out of range"):
            evaluate()
