"""The mask encoding of profile cells, pinned to the sorted-id tuple order."""

from grouppb.profile import at_least, before, combine, cut, decode, item, rank_bits, with_idle


def test_rank_bits_give_the_first_id_the_highest_bit():
    ids = ["a", "b", "c"]
    bit = rank_bits(ids)
    assert bit == {"a": 4, "b": 2, "c": 1}
    assert decode(bit["a"] | bit["c"], ids) == ("a", "c")
    assert decode(0, ids) == ()


def test_before_is_the_order_of_sorted_id_tuples():
    # Every pair of subsets, nested pairs and equal pairs included.
    for m in range(8):
        ids = [f"p{i}" for i in range(m)]
        tuples = [decode(mask, ids) for mask in range(1 << m)]
        for a, ta in enumerate(tuples):
            for b, tb in enumerate(tuples):
                assert before(a, b) == (ta < tb), (m, ta, tb)


def test_combine_cut_and_at_least_on_two_projects():
    a = item(2, 3, 0b10)  # score 2, cost 3
    b = item(1, 0, 0b01)  # score 1, free
    assert a == [(0, 0), None, (3, 0b10)]
    both = combine(a, b)
    assert both == [(0, 0), (0, 0b01), (3, 0b10), (3, 0b11)]
    cut(both, 2)
    assert both == [(0, 0), (0, 0b01), None, None]
    assert at_least([(0, 0), None, (5, 0b10), (4, 0b11)]) == [(0, 0), (4, 0b11), (4, 0b11), (4, 0b11)]
    assert item(0, 1, 0b1) == [(0, 0)]


def test_with_idle_adds_the_idle_ids_before_the_last_other_id():
    # The rule on tuples: add every idle id, then drop the trailing run of them.
    for m in range(7):
        ids = [f"p{i}" for i in range(m)]
        for idle in range(1 << m):
            idle_ids = set(decode(idle, ids))
            for mask in range(1 << m):
                expected = sorted(set(decode(mask, ids)) | idle_ids)
                while expected and expected[-1] in idle_ids:
                    expected.pop()
                assert decode(with_idle(mask, idle), ids) == tuple(expected)
