import pytest

from aldous.partitions import (
    Box,
    Partition,
    _label_tables,
    _walk,
    conjugate,
    content_sum,
    corners,
    dominance_table,
    dominates,
    in_row_class,
    maxc,
    minc,
    num_standard_tableaux,
    parse_partition,
    partitions_of,
    reading_contents,
    remove_box,
)

from itertools import accumulate
from math import factorial

import numpy as np

from references import tableaux


def _fillings(p):
    """Each tableau of _label_tables(p) as its row-wise filling with labels
    1..n, read from the rows and contents (col = content + row)."""
    rows, contents = _label_tables(p.parts)
    grids = []
    for label_rows, label_contents in zip(rows.tolist(), contents.tolist()):
        grid = [[0] * part for part in p.parts]
        for label, (row, content) in enumerate(zip(label_rows, label_contents), start=1):
            grid[row - 1][content + row - 1] = label
        grids.append(grid)
    return grids


def test_parse_plain_and_exponent():
    assert parse_partition("5,1").parts == (5, 1)
    assert parse_partition("2,1^3").parts == (2, 1, 1, 1)
    assert parse_partition(" 3 , 2 ").parts == (3, 2)


@pytest.mark.parametrize("bad", ["", "1,2", "0", "2,-1", "a,b", "2^0", "2,,1"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_partition(bad)


def test_parse_round_trips():
    for n in range(1, 9):
        for p in partitions_of(n):
            assert parse_partition(str(p)) == p
            assert parse_partition(p.compact_str()) == p


def test_conjugate_examples():
    assert conjugate(Partition([5, 1])).parts == (2, 1, 1, 1, 1)
    assert conjugate(Partition([2, 2])).parts == (2, 2)
    for n in range(1, 8):
        assert conjugate(Partition([n])).parts == tuple([1] * n)


def test_conjugate_is_involution():
    for n in range(1, 13):
        for p in partitions_of(n):
            assert conjugate(conjugate(p)) == p


def test_dominates_examples():
    assert dominates(Partition([2, 2]), Partition([2, 1, 1]))
    assert dominates(Partition([3]), Partition([1, 1, 1]))
    # prefix sums fail in both directions: 3 < 4 one way, 5 < 6 the other
    assert not dominates(Partition([3, 3]), Partition([4, 1, 1]))
    assert not dominates(Partition([4, 1, 1]), Partition([3, 3]))
    with pytest.raises(ValueError):
        dominates(Partition([2, 1]), Partition([2, 2]))


def test_dominates_is_a_partial_order():
    for n in range(2, 10):
        parts = partitions_of(n)
        for p in parts:
            assert dominates(p, p)
            for q in parts:
                if dominates(p, q) and dominates(q, p):
                    assert p == q
                for r in parts:
                    if dominates(p, q) and dominates(q, r):
                        assert dominates(p, r)


def test_dominance_refines_reverse_lex():
    for n in range(2, 10):
        for p in partitions_of(n):
            for q in partitions_of(n):
                if dominates(p, q):
                    assert p.parts >= q.parts


def test_corners_examples():
    assert corners(Partition([2, 2])) == [Box(2, 2)]
    for n in range(5, 9):
        p = Partition([2, 2] + [1] * (n - 4))
        assert corners(p) == [Box(2, 2), Box(1, n - 2)]
    for n in range(1, 6):
        assert corners(Partition([n])) == [Box(n, 1)]


def test_standard_tableaux_counts():
    assert len(_label_tables((4,))[0]) == 1
    assert len(_label_tables((2, 1))[0]) == 2
    assert len(_label_tables((2, 1, 1))[0]) == 3


def test_tableau_count_matches_hook_length_formula():
    for n in range(1, 9):
        for p in partitions_of(n):
            rows, contents = _label_tables(p.parts)
            assert rows.shape == contents.shape == (num_standard_tableaux(p), n)


def test_sum_of_squared_counts_is_factorial():
    for n in range(1, 9):
        total = sum(num_standard_tableaux(p) ** 2 for p in partitions_of(n))
        assert total == factorial(n)


def test_tableaux_are_distinct_and_standard():
    for n in range(1, 8):
        for p in partitions_of(n):
            seen = set()
            for rows in _fillings(p):
                key = tuple(map(tuple, rows))
                assert key not in seen
                seen.add(key)
                for r, row in enumerate(rows):
                    for c, val in enumerate(row):
                        if c + 1 < len(row):
                            assert val < row[c + 1]
                        if r + 1 < len(rows) and c < len(rows[r + 1]):
                            assert val < rows[r + 1][c]


def test_canonical_first_tableau_is_row_reading():
    assert _fillings(Partition([2, 1]))[0] == [[1, 2], [3]]
    for n in range(1, 9):
        for p in partitions_of(n):
            starts = accumulate(p.parts, initial=0)
            row_reading = [list(range(start + 1, start + part + 1))
                           for start, part in zip(starts, p.parts)]
            assert _fillings(p)[0] == row_reading


@pytest.mark.parametrize("n", range(0, 9))
def test_label_tables_equal_the_placement_reference(n):
    # every tableau, in the canonical order, from an enumeration that places
    # labels 1..n into addable cells instead of removing corners
    for p in partitions_of(n):
        rows, contents = _label_tables(p.parts)
        want = tableaux(p)
        assert rows.tolist() == [[row for row, _ in cells] for cells in want]
        assert contents.tolist() == [[col - row for row, col in cells] for cells in want]


def test_walk_steps_once_per_diagram_lower_diagrams_first():
    # one table over the down-sets of every partition of 8: each diagram of
    # at most 8 boxes is stepped exactly once, after the diagrams under it
    # (the step reads their values), and counting the chains gives f^lambda
    table, stepped = {}, []

    def count(parts, below):
        stepped.append(parts)
        return sum(lower for lower, _ in below) or 1

    for p in partitions_of(8):
        assert _walk(p.parts, table, count) == num_standard_tableaux(p)
    diagrams = [q.parts for k in range(9) for q in partitions_of(k)]
    assert sorted(stepped) == sorted(diagrams)
    assert table == {q: num_standard_tableaux(Partition(q)) for q in diagrams}
    assert _walk((4, 4), table, count) == 14 and len(stepped) == len(diagrams)


def test_content_sum_examples():
    for n in range(1, 10):
        assert content_sum(Partition([n])) == n * (n - 1) // 2
        assert content_sum(Partition([1] * n)) == -n * (n - 1) // 2
    assert content_sum(Partition([2, 1])) == 0


def test_content_sum_strictly_decreases_down_dominance():
    for n in range(2, 10):
        for p in partitions_of(n):
            for q in partitions_of(n):
                if p != q and dominates(p, q):
                    assert content_sum(p) > content_sum(q)


def _subdiagrams(p, k):
    """Every partition of k whose diagram lies inside p's."""
    return [mu for mu in partitions_of(k) if len(mu) <= len(p)
            and all(a <= b for a, b in zip(mu.parts, p.parts))]


def test_maxc_and_minc_match_every_subdiagram():
    for n in range(1, 9):
        for p in partitions_of(n):
            for k in range(n + 1):
                sums = [content_sum(mu) for mu in _subdiagrams(p, k)]
                assert maxc(p, k) == max(sums)
                assert minc(p, k) == min(sums)
            assert maxc(p, n) == content_sum(p) == minc(p, n)
            with pytest.raises(ValueError, match=r"need 0 <= k <="):
                maxc(p, n + 1)
            with pytest.raises(ValueError, match=r"need 0 <= k <="):
                minc(p, -1)


def test_reading_contents_fill_rows_in_order():
    assert reading_contents(Partition([3, 2, 1])) == [0, 1, 2, -1, 0, -2]
    assert reading_contents(Partition([1, 1])) == [0, -1]
    for n in range(1, 8):
        for p in partitions_of(n):
            assert reading_contents(p) == [Box(col, row).content
                                           for row, part in enumerate(p.parts, 1)
                                           for col in range(1, part + 1)]


def test_remove_box_removes_corners_only():
    for n in range(1, 8):
        for p in partitions_of(n):
            for box in corners(p):
                rest = list(p.parts)
                rest[box.row - 1] -= 1
                assert remove_box(p, box) == Partition([part for part in rest if part])
            inner = [Box(col, row) for row, part in enumerate(p.parts, 1)
                     for col in range(1, part + 1) if Box(col, row) not in corners(p)]
            for box in inner + [Box(1, len(p) + 1), Box(p[0] + 1, 1)]:
                with pytest.raises(ValueError, match="is not a corner of"):
                    remove_box(p, box)


def test_in_row_class():
    for n in range(4, 9):
        assert in_row_class(Partition([n - 1, 1]), 1)
        assert in_row_class(Partition([n]), 0)
        assert not in_row_class(Partition([n - 2, 2]), 1)
    with pytest.raises(ValueError):
        in_row_class(Partition([3, 1]), 4)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])


def test_partitions_of_is_strictly_descending_lexicographic():
    # the index rules of the ledger and of the qc suite depend on this order
    for n in range(0, 15):
        parts = [p.parts for p in partitions_of(n)]
        assert parts == sorted(set(parts), reverse=True)


def test_lex_compare_is_the_sign_of_the_index_difference():
    for n in range(1, 15):
        parts = partitions_of(n)
        for i, p in enumerate(parts):
            for j, q in enumerate(parts):
                assert (p.parts > q.parts) - (p.parts < q.parts) == (j > i) - (j < i)


def test_dominance_table_equals_dominates():
    for n in range(0, 13):
        parts = partitions_of(n)
        table = dominance_table(n)
        assert table.shape == (len(parts), len(parts)) and table.dtype == bool
        expected = np.array([[dominates(p, q) for q in parts] for p in parts])
        assert np.array_equal(table, expected)
