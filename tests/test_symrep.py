import itertools
import math
import tracemalloc
from math import factorial

import numpy as np
import pytest

from aldous.characters import character_from_rep
from aldous.graphs import (
    WeightedGraph,
    complete_graph,
    matching_graph,
    random_graph,
    star_graph,
)
from aldous.partitions import (
    Partition,
    conjugate,
    num_standard_tableaux,
    partitions_of,
)
from aldous.spectral import multiset_distance, spectrum
from aldous.symrep import (
    DEFAULT_DIM_CAP,
    DimensionCapExceeded,
    conjugate_operators,
    delta_matrices,
    delta_matrix,
    regular_delta,
    rep_adjacent,
    rep_transposition,
    _adjacent_factors,
    _assemble,
    _derived_from,
    _transpose_map,
    tableau_basis,
)

from references import tableaux


def _compose(g, h):
    """g h on one-line tuples of 1..n: (g h)(x) = g(h(x))."""
    return tuple(g[x - 1] for x in h)


def _reduced_word(g):
    """Indices i with g = s_{i_1} s_{i_2} ... s_{i_m}, m the number of
    inversions of g. Bubble sorting the one-line tuple to the identity
    swaps positions i, i+1, which is right multiplication by s_i, so the
    swaps read backwards spell g."""
    arr, swaps = list(g), []
    for end in range(len(arr) - 1, 0, -1):
        for i in range(end):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                swaps.append(i + 1)
    return swaps[::-1]


def _cycle_type(g):
    seen, lengths = set(), []
    for start in range(1, len(g) + 1):
        x, length = start, 0
        while x not in seen:
            seen.add(x)
            x, length = g[x - 1], length + 1
        if length:
            lengths.append(length)
    return Partition(sorted(lengths, reverse=True))


def test_rep_adjacent_examples():
    for n in range(2, 6):
        assert np.array_equal(rep_adjacent(Partition([n]), 1), [[1.0]])
        assert np.array_equal(rep_adjacent(Partition([1] * n), 1), [[-1.0]])
    m = rep_adjacent(Partition([2, 1]), 1)
    assert np.allclose(m, np.diag([1.0, -1.0]))
    # trace matches the fixed-point count of a transposition minus one
    assert abs(m.trace() - 0.0) < 1e-12
    with pytest.raises(ValueError):
        rep_adjacent(Partition([2, 1]), 3)


def test_images_are_orthogonal_involutions():
    for n in range(2, 8):
        for shape in partitions_of(n):
            dim = num_standard_tableaux(shape)
            eye = np.eye(dim)
            for i in range(1, n):
                m = rep_adjacent(shape, i)
                assert np.abs(m @ m.T - eye).max() < 1e-10
                assert np.abs(m @ m - eye).max() < 1e-10


def test_braid_and_commutation_relations():
    for n in range(3, 8):
        for shape in partitions_of(n):
            mats = [rep_adjacent(shape, i) for i in range(1, n)]
            for i in range(n - 2):
                lhs = mats[i] @ mats[i + 1] @ mats[i]
                rhs = mats[i + 1] @ mats[i] @ mats[i + 1]
                assert np.abs(lhs - rhs).max() < 1e-10
            for i in range(n - 1):
                for j in range(i + 2, n - 1):
                    assert np.abs(
                        mats[i] @ mats[j] - mats[j] @ mats[i]
                    ).max() < 1e-10


def _image(shape, g):
    """The image of g: the product of adjacent images along a reduced word."""
    image = np.eye(num_standard_tableaux(shape))
    for i in _reduced_word(g):
        image = image @ rep_adjacent(shape, i)
    return image


def test_rep_permutation_is_a_homomorphism():
    rng = np.random.default_rng(5)
    perms = list(itertools.permutations(range(1, 6)))
    for shape in partitions_of(5):
        for _ in range(3):
            g = perms[rng.integers(len(perms))]
            h = perms[rng.integers(len(perms))]
            lhs = _image(shape, _compose(g, h))
            rhs = _image(shape, g) @ _image(shape, h)
            assert np.abs(lhs - rhs).max() < 1e-10
    assert np.array_equal(_image(Partition([3, 2]), tuple(range(1, 6))), np.eye(5))


def test_sign_representation_values():
    for n in range(2, 6):
        shape = Partition([1] * n)
        for g in itertools.permutations(range(1, n + 1)):
            parts = _cycle_type(g).parts
            sign = -1 if (n - len(parts)) % 2 else 1
            assert np.allclose(_image(shape, g), [[sign]])


def test_trace_depends_only_on_cycle_type():
    # every g in S_n, imaged as the product of adjacent images along a
    # reduced word, traces to the character at g's cycle type
    for n in range(1, 6):
        characters = {shape: character_from_rep(shape) for shape in partitions_of(n)}
        for g in itertools.permutations(range(1, n + 1)):
            word, cycle = _reduced_word(g), _cycle_type(g)
            product = tuple(range(1, n + 1))
            for i in word:
                s_i = (*range(1, i), i + 1, i, *range(i + 2, n + 1))
                product = _compose(product, s_i)
            assert product == g
            for shape, chi in characters.items():
                assert abs(_image(shape, g).trace() - chi[cycle]) < 1e-10


def test_delta_matrix_examples():
    g = random_graph(5, 3)
    assert np.allclose(delta_matrix(Partition([5]), g), [[0.0]])
    assert np.allclose(delta_matrix(Partition([1] * 5), g), [[2 * g.wt]])
    single = WeightedGraph.from_edges(4, [(2, 3, 1.0)])
    for shape in partitions_of(4):
        vals = spectrum(delta_matrix(shape, single))
        assert all(min(abs(v), abs(v - 2)) < 1e-10 for v in vals)


def test_delta_matrix_matches_transposition_sum():
    # the image chains against the dense product of cached images, one graph
    # at a time and stacked: random, star, zero, matching and single-edge
    # graphs, and graphs with an isolated vertex
    for n in range(2, 8):
        graphs = _mixed_stack(n) + [random_graph(n, 500 + n),
                                    random_graph(n, 600 + n, density=0.9),
                                    complete_graph(n)]
        graphs += [WeightedGraph.from_edges(n, [(i, j, 0.75)])
                   for i, j in ((1, 2), (1, n), (n - 1, n)) if i < j]
        for shape in partitions_of(n):
            stack = delta_matrices(shape, graphs)
            for m, g in zip(stack, graphs):
                dim = num_standard_tableaux(shape)
                ref = g.wt * np.eye(dim)
                for i, j, w in g.edges():
                    ref = ref - w * rep_transposition(shape, i, j)
                assert np.abs(delta_matrix(shape, g) - ref).max() < 1e-12
                assert np.abs(m - ref).max() < 1e-12


def test_delta_matrix_is_psd_and_symmetric():
    rng = np.random.default_rng(7)
    for n in range(2, 8):
        g = random_graph(n, int(rng.integers(0, 1000)))
        for shape in partitions_of(n):
            m = delta_matrix(shape, g)
            assert np.abs(m - m.T).max() < 1e-10
            assert spectrum(m)[0] >= -1e-9


def test_jucys_murphy_diagonality():
    for n in range(3, 8):
        for k in range(2, n + 1):
            star = star_graph(n, k)
            for shape in partitions_of(n):
                m = delta_matrix(shape, star)
                off = m - np.diag(np.diag(m))
                assert np.abs(off).max() < 1e-10
                _, contents = tableau_basis(shape)
                expected = k - 1 - contents[:, k - 1]
                assert np.abs(np.diag(m) - expected).max() < 1e-10


def test_delta_matrix_input_validation():
    with pytest.raises(ValueError):
        delta_matrix(Partition([3, 1]), complete_graph(5))
    with pytest.raises(DimensionCapExceeded):
        delta_matrix(Partition([3, 1]), complete_graph(4), dim_cap=2)


def _mixed_stack(n: int) -> list:
    """Random, star, zero and matching graphs, and graphs with isolated
    vertices, so that a step's weight is zero on only part of the stack."""
    graphs = [random_graph(n, 40 + n), random_graph(n, 50 + n, density=0.2),
              star_graph(n, n), WeightedGraph(np.zeros((n, n))),
              matching_graph(n, n // 2)]
    for isolated in (1, n):
        weights = random_graph(n, 60 + isolated, density=0.9).weights.copy()
        weights[isolated - 1, :] = 0.0
        weights[:, isolated - 1] = 0.0
        graphs.append(WeightedGraph(weights))
    return graphs


def test_delta_matrices_slices_equal_delta_matrix_bit_for_bit():
    for n in range(2, 8):
        graphs = _mixed_stack(n)
        for shape in partitions_of(n):
            stack = delta_matrices(shape, graphs)
            dim = num_standard_tableaux(shape)
            assert stack.shape == (len(graphs), dim, dim)
            for m, g in zip(stack, graphs):
                assert m.tobytes() == delta_matrix(shape, g).tobytes()
            # one graph alone is the same as the delta_matrix call
            assert delta_matrices(shape, graphs[:1])[0].tobytes() == stack[0].tobytes()


def test_delta_matrices_peak_allocation_is_two_stacks_and_the_chain():
    # the stack, one weighted image per graph, three chain buffers, and one
    # d^2 for numpy's iterator buffer (up to 8192 floats) in the factor
    # products; the stacked recursion this replaced peaked at about 16 d^2
    shape, count = Partition([4, 3, 1]), 3
    dim = num_standard_tableaux(shape)
    graphs = [random_graph(8, seed, density=0.9) for seed in range(count)]
    delta_matrices(shape, graphs)  # warm the factor and tableau caches
    tracemalloc.start()
    try:
        delta_matrices(shape, graphs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 * count + 4) * dim * dim * 8 + 32768, peak


def test_derived_stacks_keep_the_peak_allocation_bound():
    # 3,2,2,1 is the mate of 4,3,1: its stack is derived from the chain's,
    # within the same bound as the chain alone
    shape, count = Partition([3, 2, 2, 1]), 3
    assert _derived_from(shape) == Partition([4, 3, 1])
    dim = num_standard_tableaux(shape)
    graphs = [random_graph(8, seed, density=0.9) for seed in range(count)]
    delta_matrices(shape, graphs)  # warm the factor, tableau and transpose caches
    tracemalloc.start()
    try:
        delta_matrices(shape, graphs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (2 * count + 4) * dim * dim * 8 + 32768, peak


def _dense(factors):
    diag, off, partner = factors
    m = np.diag(diag)
    m[np.arange(len(diag)), partner] += off
    return m


@pytest.mark.parametrize("n", range(2, 10))
def test_transpose_map_negates_every_adjacent_image(n):
    # Q rho_conj(s_i) Q^t = -rho_shape(s_i) entry for entry, with no
    # rounding: the signed permutation only moves and negates floats
    for shape in partitions_of(n):
        source, sign = _transpose_map(shape)
        assert sorted(source.tolist()) == list(range(num_standard_tableaux(shape)))
        assert set(sign.tolist()) <= {1.0, -1.0}
        for i in range(1, n):
            image = _dense(_adjacent_factors(conjugate(shape), i))
            moved = image[np.ix_(source, source)] * np.outer(sign, sign)
            expected = -_dense(_adjacent_factors(shape, i))
            # equal floats; + 0.0 only unifies the signs of zeros
            assert (moved + 0.0).tobytes() == (expected + 0.0).tobytes(), (shape, i)


def test_transpose_map_sends_each_tableau_to_its_transpose():
    for shape in partitions_of(6):
        source, _ = _transpose_map(shape)
        own = tableaux(shape)
        mates = tableaux(conjugate(shape))
        for p, k in enumerate(source):
            assert [(col, row) for row, col in own[p]] == list(mates[k])


@pytest.mark.parametrize("n", range(2, 10))
def test_derived_operators_match_the_direct_chain(n):
    graphs = _mixed_stack(n) + [random_graph(n, 700 + n), complete_graph(n)]
    derived = [shape for shape in partitions_of(n) if _derived_from(shape) is not None]
    assert len(derived) == sum(conjugate(s) != s for s in partitions_of(n)) // 2
    for shape in derived:
        stack = delta_matrices(shape, graphs)
        chain = _assemble(shape, graphs, DEFAULT_DIM_CAP)
        for m, ref, g in zip(stack, chain, graphs):
            assert np.abs(m - ref).max() <= 1e-12 * max(1.0, 2 * g.wt), (shape, g)
        assert not np.signbit(stack[stack == 0]).any()


def test_conjugate_operators_input_validation():
    shape, graphs = Partition([2, 1, 1]), [random_graph(4, 1), random_graph(4, 2)]
    stack = delta_matrices(Partition([3, 1]), graphs)
    assert conjugate_operators(shape, stack, graphs).tobytes() == (
        delta_matrices(shape, graphs).tobytes())
    with pytest.raises(ValueError):
        conjugate_operators(shape, stack, graphs[:1])
    with pytest.raises(ValueError):
        conjugate_operators(Partition([2, 2]), stack, graphs)


def test_a_zero_row_in_a_stack_leaves_that_graph_alone():
    # the stack forms and subtracts images this graph does not need; each
    # of its zero weights subtracts +-0.0 from a matrix with no -0.0 in it
    n = 6
    for vertex in range(1, n + 1):
        weights = random_graph(n, 900 + vertex, density=1.0).weights.copy()
        weights[vertex - 1, :] = weights[:, vertex - 1] = 0.0
        lonely = WeightedGraph(weights)
        graphs = [complete_graph(n), lonely, random_graph(n, 950 + vertex)]
        for shape in partitions_of(n):
            alone = delta_matrix(shape, lonely)
            assert delta_matrices(shape, graphs)[1].tobytes() == alone.tobytes()
            assert not np.signbit(alone[alone == 0]).any()


def test_delta_matrices_input_validation():
    shape = Partition([3, 1])
    with pytest.raises(ValueError):
        delta_matrices(shape, [])
    with pytest.raises(ValueError):
        delta_matrices(shape, [random_graph(4, 1), random_graph(5, 1)])
    with pytest.raises(ValueError):
        delta_matrices(shape, [random_graph(5, 1), random_graph(5, 2)])
    with pytest.raises(DimensionCapExceeded):
        delta_matrices(shape, [random_graph(4, 1), complete_graph(4)], dim_cap=2)


def test_sign_twist_reverses_spectrum():
    g = random_graph(5, 19)
    for shape in partitions_of(5):
        conj = Partition(
            [sum(1 for q in shape.parts if q >= i) for i in range(1, shape.parts[0] + 1)]
        )
        vals = spectrum(delta_matrix(shape, g))
        twisted = spectrum(delta_matrix(conj, g))
        expected = sorted(2 * g.wt - v for v in vals)
        assert multiset_distance(twisted, expected) < 1e-8


def test_regular_delta_complete_3():
    reg = spectrum(regular_delta(complete_graph(3)))
    assert multiset_distance(reg, [0, 3, 3, 3, 3, 6]) < 1e-10


def test_regular_delta_trace():
    for n in (3, 4):
        g = random_graph(n, 40 + n)
        m = regular_delta(g)
        assert abs(m.trace() - factorial(n) * g.wt) < 1e-9


def test_regular_delta_decomposes_into_irreducibles():
    g = random_graph(4, 77)
    full = spectrum(regular_delta(g))
    expected = []
    for shape in partitions_of(4):
        vals = spectrum(delta_matrix(shape, g))
        expected.extend(list(vals) * num_standard_tableaux(shape))
    assert multiset_distance(full, expected) < 1e-7


def test_regular_delta_cap():
    with pytest.raises(ValueError):
        regular_delta(complete_graph(7))


def reference_regular_delta(graph):
    """One product of one-line tuples per (edge, group element)."""
    n = graph.n
    perms = list(itertools.permutations(range(1, n + 1)))
    index = {g: k for k, g in enumerate(perms)}
    m = graph.wt * np.eye(len(perms))
    for i, j, w in graph.edges():
        t = list(range(1, n + 1))
        t[i - 1], t[j - 1] = j, i
        for k, g in enumerate(perms):
            m[index[_compose(tuple(t), g)], k] -= w
    return m


def test_regular_delta_matches_the_permutation_product_build():
    rng = np.random.default_rng(4)
    for n in range(1, 6):
        graphs = [complete_graph(n), random_graph(n, 90 + n), random_graph(n, 80 + n, 0.3),
                  WeightedGraph(np.zeros((n, n)))]
        w = np.triu(10.0 ** rng.integers(-8, 8, size=(n, n)) * rng.random((n, n)), 1)
        graphs.append(WeightedGraph(w + w.T))
        for graph in graphs:
            found = regular_delta(graph)
            assert found.tobytes() == reference_regular_delta(graph).tobytes()
            assert found.shape == (factorial(n), factorial(n))


def _tableau_factors(shape, i):
    """Young's orthogonal form of (i, i+1) read tableau by tableau, the
    reference for _adjacent_factors."""
    tabs = tableaux(shape)
    index = {t: k for k, t in enumerate(tabs)}
    diag = np.empty(len(tabs))
    off = np.zeros(len(tabs))
    partner = np.arange(len(tabs))
    for k, tab in enumerate(tabs):
        (lo_row, lo_col), (hi_row, hi_col) = tab[i - 1], tab[i]
        if lo_row == hi_row:
            diag[k] = 1.0
        elif lo_col == hi_col:
            diag[k] = -1.0
        else:
            d = (hi_col - hi_row) - (lo_col - lo_row)
            swapped = list(tab)
            swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
            partner[k] = index[tuple(swapped)]
            diag[k] = 1.0 / d
            off[k] = math.sqrt(1.0 - 1.0 / d**2)
    return diag, off, partner


@pytest.mark.parametrize("shapes", [
    [shape for n in range(2, 9) for shape in partitions_of(n)],
    # radix products past int64: the row-word keys are Python ints
    [Partition([2] + [1] * 19), Partition([3] + [1] * 18), Partition([2, 2] + [1] * 17)],
], ids=["n2-8", "n21"])
def test_adjacent_factors_equal_the_tableau_reference(shapes):
    for shape in shapes:
        for i in range(1, shape.n):
            found = _adjacent_factors(shape, i)
            for got, want in zip(found, _tableau_factors(shape, i)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
