import copy
import pickle
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from lamo import (
    INF,
    Avoidance,
    EventLog,
    ExactNumber,
    IntSet,
    LinearMap,
    NumberSequence,
    Tail,
    Verdict,
    check_complementary,
    classify,
    corollary_sets,
    from_set,
    grid_witness,
    hat,
    hat_horizon,
    induced_inverse,
    invert,
    lattice_avoidance,
)
from lamo.errors import (
    EmptyWindow,
    HorizonExceeded,
    LamoError,
    NotNonDecreasing,
    NotPositive,
    NotSorted,
)
import lamo.sequences

from gen import mutate_pair
from oracles import (
    bisect_invert,
    check_non_decreasing,
    counting_inverse,
    scan_complementary,
    scan_grid_witness,
)


def seq(vals, tail):
    return NumberSequence(vals, tail)


@st.composite
def sequences_st(draw, max_len=12, max_val=20, kinds=("constant", "infinite")):
    kind = draw(st.sampled_from(kinds))
    vals = sorted(draw(st.lists(st.integers(0, max_val), max_size=max_len)))
    if kind == "constant":
        lo = vals[-1] if vals else 0
        v = draw(st.integers(min_value=lo, max_value=max(lo, max_val)))
        return seq(vals, Tail.constant(v))
    vals = vals + [INF] * draw(st.integers(0, 2))
    return seq(vals, Tail(kind))


@st.composite
def grid_cases(draw):
    """(f, g, M, N): an inverse pair, a mutated inverse pair, or two unrelated sequences."""
    any_tail = sequences_st(kinds=("constant", "infinite", "unknown"))
    f, g = draw(any_tail), draw(any_tail)
    pairing = draw(st.sampled_from(("inverse", "mutated", "unrelated")))
    # An all-zero prefix with an unknown tail has no inverse (EmptyWindow).
    if pairing != "unrelated" and (f.tail.kind != "unknown" or any(f.prefix)):
        g = invert(f)
        if pairing == "mutated":
            f, g = mutate_pair(f, g, random.Random(draw(st.integers(0, 2**32))))
    return f, g, draw(st.integers(1, 25)), draw(st.integers(1, 25))


def outcome(fn, *args):
    """What fn returns, or the class of the LamoError it raises."""
    try:
        return fn(*args)
    except LamoError as e:
        return type(e)


# Prefixes of ints (negative ones too), inf and values of other types.
EXTNAT_LIKE = st.lists(
    st.one_of(st.integers(-2, 12), st.just(INF), st.sampled_from((True, 1.5, "3"))),
    max_size=10,
)
TAILS = st.one_of(st.sampled_from((Tail.unknown(), Tail.infinite())),
                  st.integers(0, 12).map(Tail.constant))


class TestValidation:
    def test_non_decreasing_examples(self):
        assert seq((0, 0, 1, 4), Tail.infinite()).prefix == (0, 0, 1, 4)
        with pytest.raises(NotNonDecreasing, match=r"^term 2 \(1\) is below term 1 \(2\)$"):
            seq((2, 1), Tail.unknown())
        with pytest.raises(NotNonDecreasing, match=r"^term 2 \(3\) exceeds the constant tail 2$"):
            seq((3, 3), Tail.constant(2))

    def test_inf_only_at_the_end(self):
        assert seq((1, INF, INF), Tail.infinite()).prefix == (1, INF, INF)
        with pytest.raises(NotNonDecreasing, match=r"^term 2 \(1\) is below term 1 \(inf\)$"):
            seq((INF, 1), Tail.infinite())

    def test_constant_tail_rejects_inf_prefix(self):
        with pytest.raises(NotNonDecreasing, match=r"^term 2 \(inf\) exceeds the constant tail 5$"):
            seq((1, INF), Tail.constant(5))

    def test_bad_entry_outranks_descent(self):
        with pytest.raises(ValueError, match="inf: -2$"):
            seq((3, 1, -2), Tail.unknown())
        with pytest.raises(ValueError, match="inf: 1.5$"):
            seq((3, 1, 1.5), Tail.constant(0))

    def test_order_message_is_bounded(self):
        terms = list(range(10**5))
        terms[50000] = 3
        with pytest.raises(NotNonDecreasing) as e:
            seq(terms, Tail.unknown())
        assert str(e.value) == "term 50001 (3) is below term 50000 (49999)"

    @given(EXTNAT_LIKE, TAILS)
    @example([0, 2, 1], Tail.unknown())
    @example([2, -1], Tail.constant(0))
    @example([1, INF], Tail.constant(3))
    @example([INF, 2], Tail.infinite())
    @example([INF, 1], Tail.unknown())
    @example([1, INF, 2], Tail.unknown())
    @example([1, 2.5, INF], Tail.unknown())
    @example([1, float("inf")], Tail.unknown())
    @example([1, INF, INF], Tail.unknown())
    def test_builds_exactly_when_the_oracle_holds(self, entries, tail):
        typed = all(lamo.sequences.is_extnat(v) for v in entries)
        if typed and check_non_decreasing(entries, tail):
            assert seq(entries, tail).prefix == tuple(entries)
            return
        with pytest.raises((ValueError, NotNonDecreasing)) as e:
            seq(entries, tail)
        i, fault = lamo.sequences.sequence_fault(tuple(entries), tail)
        assert type(e.value) is type(fault) and str(e.value) == str(fault)
        if typed:
            # The first prefix that the oracle rejects, or the tail after all of them.
            descent = next((j for j in range(len(entries))
                            if not check_non_decreasing(entries[: j + 1], Tail.unknown())),
                           len(entries))
            assert isinstance(fault, NotNonDecreasing) and i == descent
            assert str(fault).startswith(f"term {i + 1 if i < len(entries) else i} ")
        else:
            assert type(fault) is ValueError and i == next(
                j for j, v in enumerate(entries) if not lamo.sequences.is_extnat(v))

    def test_entry_type_checked(self):
        with pytest.raises(ValueError):
            seq((-1,), Tail.unknown())
        with pytest.raises(ValueError):
            seq((1.5,), Tail.unknown())
        # Each bad entry at the first, middle and last place, keeping its message.
        for bad in (True, -1, 1.5, "3", float("inf")):
            for at in range(3):
                terms = [1, 2, INF]
                terms[at] = bad
                with pytest.raises(ValueError) as e:
                    seq(terms, Tail.unknown())
                assert str(e.value) == f"sequence entry must be a non-negative int or inf: {bad!r}"
        for bad in (True, -1, 1.5, "3", 0, INF):
            for at in range(3):
                elems = [1, 2, 3]
                elems[at] = bad
                with pytest.raises(NotPositive) as e:
                    IntSet(tuple(elems), 5)
                assert str(e.value) == f"set element must be a positive integer: {bad!r}"


class TestValueAt:
    def test_tail_continuations(self):
        assert seq((1, 2), Tail.constant(7)).value_at(50) == 7
        assert seq((1, 2), Tail.infinite()).value_at(3) is INF
        with pytest.raises(HorizonExceeded):
            seq((1, 2), Tail.unknown()).value_at(3)

    def test_unknown_tail_after_inf_is_forced(self):
        s = seq((1, INF), Tail.unknown())
        assert s.value_at(9) is INF
        assert s.determined_horizon() is INF
        assert s.tail == Tail.infinite()

    def test_index_must_be_positive(self):
        with pytest.raises(NotPositive):
            seq((1,), Tail.unknown()).value_at(0)

    def test_values_continue_the_tail(self):
        assert seq((1, 2), Tail.constant(7)).values(4) == (1, 2, 7, 7)
        assert seq((1, 2), Tail.infinite()).values(3) == (1, 2, INF)
        assert seq((1, 2), Tail.unknown()).values(0) == ()
        with pytest.raises(HorizonExceeded, match="index 3 is outside"):
            seq((1, 2), Tail.unknown()).values(5)


BOUND_F = NumberSequence((1, 2, 3), Tail.constant(3))
BOUND_SET = IntSet((1, 3), 4)
# Every window bound, index and horizon, each with the name its message gives.
BOUND_SITES = {
    "value_at": (lambda v: BOUND_F.value_at(v), "sequence index"),
    "IntSet": (lambda v: IntSet((), v), "horizon"),
    "grid_witness M": (lambda v: grid_witness(BOUND_F, invert(BOUND_F), v, 2),
                       "window dimension M"),
    "grid_witness N": (lambda v: grid_witness(BOUND_F, invert(BOUND_F), 2, v),
                       "window dimension N"),
    "hat": (lambda v: hat(BOUND_F, v), "hat window bound"),
    "check_complementary": (lambda v: check_complementary(BOUND_SET, BOUND_SET, v),
                            "window bound"),
    "lattice_avoidance": (lambda v: lattice_avoidance(LinearMap(2), v), "scan bound"),
    "corollary_sets": (lambda v: corollary_sets(LinearMap(2), v), "window bound"),
    "induced_inverse": (lambda v: induced_inverse(LinearMap(2), v), "window bound"),
    "invert": (lambda v: invert(BOUND_F, v), "inverse window"),
    "window": (lambda v: BOUND_F.window(v), "sequence window"),
}
# The sites that also take 0.
NON_NEGATIVE = {"IntSet", "invert", "window"}


class TestBounds:
    """One rule for every bound: an object of type exactly int, at least 1
    (at least 0 for a horizon)."""

    @pytest.mark.parametrize("site", BOUND_SITES)
    @pytest.mark.parametrize("v", [True, 1.5, -1, "2"])
    def test_rejects_non_ints_and_negatives(self, site, v):
        call, what = BOUND_SITES[site]
        kind = "non-negative" if site in NON_NEGATIVE else "positive"
        message = f"{what} must be a {kind} integer, got {v!r}"
        with pytest.raises(NotPositive, match=re.escape(message)):
            call(v)

    @pytest.mark.parametrize("site", BOUND_SITES)
    def test_accepts_one(self, site):
        BOUND_SITES[site][0](1)

    def test_fractional_grid_window(self):
        f = seq((1, 2), Tail.infinite())
        with pytest.raises(NotPositive):
            grid_witness(f, invert(f), 1.5, 2)


class TestEquality:
    def test_constant_tail_absorbs_prefix(self):
        assert seq((1, 1, 2, 2), Tail.constant(2)) == seq((1, 1), Tail.constant(2))

    def test_infinite_tail_absorbs_inf_run(self):
        assert seq((3, INF, INF), Tail.infinite()) == seq((3,), Tail.infinite())

    def test_unknown_prefix_is_data(self):
        assert seq((1, 2), Tail.unknown()) != seq((1,), Tail.unknown())

    def test_hash_follows_eq(self):
        assert hash(seq((2,), Tail.constant(2))) == hash(seq((), Tail.constant(2)))


RECORDS = ["IntSet", "Tail", "Verdict", "Avoidance", "EventLog"]


class TestRecords:
    @pytest.mark.parametrize("make", [
        lambda els: IntSet(els, 5),
        lambda els: Tail("constant", len(els)),
    ], ids=["IntSet", "Tail"])
    def test_equal_and_hash_equal_by_value(self, make):
        a, b = make([1, 2, 4]), make((1, 2, 4))
        assert a == b and hash(a) == hash(b)
        assert a != make((1, 2))

    def test_intset_is_not_its_field_tuple(self):
        assert IntSet((1,), 1) != ((1,), 1)

    @pytest.mark.parametrize("record, field", [
        (IntSet((1, 2), 3), "horizon"),
        (Tail.constant(3), "value"),
        (Verdict("gap", 3), "witness"),
        (Avoidance(5), "violation"),
        (EventLog((), ExactNumber(1)), "events"),
    ], ids=RECORDS)
    def test_fields_cannot_be_assigned_or_deleted(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 4)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))

    @pytest.mark.parametrize("record, text", [
        (IntSet([1, 2], 3), "IntSet(elements=(1, 2), horizon=3)"),
        (Tail.constant(3), "Tail(kind='constant', value=3)"),
        (Verdict("gap", 3), "Verdict(kind='gap', witness=3)"),
        (Avoidance(5), "Avoidance(checked_through=5, violation=None)"),
        (EventLog((), ExactNumber(1)), "EventLog(events=(), horizon_time=ExactNumber(1, 0, 0, 1))"),
    ], ids=RECORDS)
    def test_repr(self, record, text):
        assert repr(record) == text

    def test_named_tuples_unpack_and_equal_their_fields(self):
        kind, witness = Verdict("gap", 3)
        assert (kind, witness) == ("gap", 3)
        assert Avoidance(5) == (5, None) and EventLog((), ExactNumber(1)) == ((), ExactNumber(1))

    def test_check_complementary_verdict(self):
        assert check_complementary(IntSet((1,), 2), IntSet((2,), 2), 2) == Verdict("partition")


class TestInvert:
    def test_squares_window(self):
        g = invert(seq((1, 4, 9, 16, 25), Tail.unknown()))
        assert [g.value_at(n) for n in (1, 2, 5, 10, 17, 25)] == [0, 1, 2, 3, 4, 4]
        assert g.tail.kind == "unknown" and len(g.prefix) == 25
        with pytest.raises(HorizonExceeded):
            g.value_at(26)

    def test_all_infinite(self):
        assert invert(seq((INF,), Tail.infinite())) == seq((), Tail.constant(0))

    def test_all_zero(self):
        g = invert(seq((0,), Tail.constant(0)))
        assert g == seq((), Tail.infinite())
        assert g.value_at(1) is INF

    def test_constant_tail_is_fully_determined(self):
        g = invert(seq((1, 1, 2), Tail.constant(2)))
        assert g.prefix == (0, 2) and g.tail == Tail.infinite()
        assert g.value_at(3) is INF

    def test_infinite_tail_gives_constant(self):
        g = invert(seq((0, 0, 1, 4), Tail.infinite()))
        assert g.prefix == (2, 3, 3, 3) and g.tail == Tail.constant(4)

    def test_monotonicity_required(self):
        with pytest.raises(NotNonDecreasing):
            invert(seq((2, 1), Tail.unknown()))

    def test_empty_windows(self):
        with pytest.raises(EmptyWindow):
            invert(seq((), Tail.unknown()))
        with pytest.raises(EmptyWindow):
            invert(seq((0, 0), Tail.unknown()))

    @given(sequences_st(kinds=("constant", "infinite", "unknown")), st.integers(0, 30))
    @example(seq((1, 4, 9), Tail.unknown()), 0)
    @example(seq((1, 4, 9), Tail.unknown()), 9)
    @example(seq((1, 1, 2), Tail.constant(2)), 2)
    @example(seq((0, 0, 1, 4), Tail.infinite()), 4)
    @example(seq((0, 0, 1, 4, INF), Tail.infinite()), 7)
    @example(seq((), Tail.infinite()), 3)
    @example(seq((0, 0), Tail.unknown()), 1)
    def test_window_is_the_cut_inverse(self, f, upto):
        whole = outcome(invert, f)
        if not isinstance(whole, NumberSequence):
            assert whole is EmptyWindow and outcome(invert, f, upto) is EmptyWindow
            return
        g, cut = invert(f, upto), whole.window(upto)
        assert (g.prefix, g.tail) == (cut.prefix, cut.tail)
        # The prefix and the tail against the oracle: a determined tail
        # continues past the prefix, and a window that cuts a term off ends
        # in an unknown tail.
        prefix, (kind, value) = bisect_invert(f)
        assert g.tail == (Tail(kind, value) if upto >= len(prefix) else Tail.unknown())
        if kind != "unknown":
            prefix += [INF if kind == "infinite" else value] * upto
        assert g.prefix == tuple(prefix[:upto])

    @pytest.mark.parametrize("upto", [0, 1, 3, 100])
    def test_window_keeps_the_errors(self, upto):
        # The terms out of order, 30 then 5, lie above the smaller windows.
        with pytest.raises(NotNonDecreasing):
            invert(seq((1, 2, 30, 5), Tail.unknown()), upto)
        with pytest.raises(NotNonDecreasing):
            invert(seq((1, 5), Tail.constant(3)), upto)
        with pytest.raises(EmptyWindow):
            invert(seq((), Tail.unknown()), upto)
        with pytest.raises(EmptyWindow):
            invert(seq((0, 0), Tail.unknown()), upto)

    def test_window_builds_only_its_terms(self, monkeypatch):
        # The runs stop at the window's top, whatever the length of g.
        built = []
        real = lamo.sequences.NumberSequence

        def spy(terms, tail):
            built.append(tuple(terms))
            return real(built[-1], tail)

        monkeypatch.setattr(lamo.sequences, "NumberSequence", spy)
        f = seq(tuple(range(0, 3 * 10**5, 3)), Tail.unknown())
        assert invert(f, 5).prefix == (1, 1, 1, 2, 2)
        assert built == [(1, 1, 1, 2, 2)]

    def test_matches_brute_count_on_window(self):
        f = seq((0, 2, 2, 5), Tail.unknown())
        g = invert(f)
        for n in range(1, 6):
            assert g.value_at(n) == counting_inverse([0, 2, 2, 5], n)

    @given(sequences_st(kinds=("constant", "infinite", "unknown")))
    @example(seq((), Tail.infinite()))
    @example(seq((), Tail.constant(4)))
    @example(seq((0, 0, 3, 3, 3, 7), Tail.constant(12)))
    @example(seq((0, 2, INF, INF), Tail.infinite()))
    @example(seq((INF,), Tail.unknown()))
    @example(seq((0, 0, 5), Tail.unknown()))
    def test_matches_bisect_oracle(self, f):
        # An unknown tail holds no inf (it would have made the tail infinite).
        if f.tail.kind == "unknown" and not any(f.prefix):
            with pytest.raises(EmptyWindow):
                invert(f)
            return
        g = invert(f)
        prefix, (kind, value) = bisect_invert(f)
        assert g.prefix == tuple(prefix) and g.tail == Tail(kind, value)

    def test_no_search_per_term(self, monkeypatch):
        calls = []
        real = lamo.sequences.bisect_left
        monkeypatch.setattr(lamo.sequences, "bisect_left", lambda *a: calls.append(a) or real(*a))
        g = invert(seq(tuple(range(0, 3000, 3)) + (INF,), Tail.infinite()))
        assert len(g.prefix) == 2997 and len(calls) == 1

    @given(sequences_st())
    def test_involution(self, f):
        assert invert(invert(f)) == f

    @given(sequences_st())
    def test_output_non_decreasing(self, f):
        g = invert(f)
        assert check_non_decreasing(g.prefix, g.tail)

    @given(sequences_st())
    def test_one_of_any_pair_is_inf_free(self, f):
        g = invert(f)
        has_inf = any(v is INF for v in f.prefix) or f.tail.kind == "infinite"
        g_has_inf = g.tail.kind == "infinite"
        assert not (has_inf and g_has_inf)
        assert has_inf or g_has_inf or f.tail.kind == "constant"


class TestGrid:
    def test_shifted_identity(self):
        f = seq(tuple(range(1, 21)), Tail.unknown())
        g = seq(tuple(range(0, 20)), Tail.unknown())
        assert grid_witness(f, g, 10, 10) is None

    def test_all_inf_vs_all_zero(self):
        f = seq((INF,), Tail.infinite())
        g = seq((0,), Tail.constant(0))
        assert grid_witness(f, g, 5, 5) is None

    def test_identity_fails_against_itself(self):
        f = seq((1, 2, 3), Tail.unknown())
        assert grid_witness(f, f, 3, 3) == (1, 1, "neither")

    def test_both_witness_kind(self):
        f = seq((0, 0), Tail.unknown())
        g = seq((0, 0), Tail.unknown())
        assert grid_witness(f, g, 2, 2) == (1, 1, "both")

    def test_window_beyond_horizon(self):
        f = seq((1, 2), Tail.unknown())
        with pytest.raises(HorizonExceeded):
            grid_witness(f, f, 3, 3)

    def test_neither_in_a_later_row(self):
        f = seq((1, 2, 3), Tail.unknown())
        g = seq((0, 1, 3), Tail.unknown())
        assert grid_witness(f, g, 3, 3) == (3, 3, "neither")

    def test_both_in_a_later_row(self):
        f = seq((1, 2, 3), Tail.unknown())
        g = seq((0, 1, 1), Tail.unknown())
        assert grid_witness(f, g, 3, 3) == (2, 3, "both")

    def test_non_monotone_g_rejected(self):
        f = seq((1, 2, 3), Tail.unknown())
        with pytest.raises(NotNonDecreasing):
            grid_witness(f, seq((2, 1), Tail.unknown()), 2, 2)
        with pytest.raises(NotNonDecreasing):
            grid_witness(f, seq((2, 1), Tail.unknown()), 3, 3)

    @given(grid_cases())
    @settings(max_examples=400)
    def test_matches_pairwise_scan(self, case):
        assert outcome(grid_witness, *case) == outcome(scan_grid_witness, *case)

    @given(sequences_st())
    @settings(max_examples=60)
    def test_inverse_pairs_pass(self, f):
        g = invert(f)
        assert grid_witness(f, g, 15, 15) is None


class TestHat:
    def test_examples(self):
        assert hat(seq(tuple(range(1, 11)), Tail.unknown()), 10).elements == (2, 4, 6, 8, 10)
        assert hat(seq((0, 0, 1, 4), Tail.infinite()), 100).elements == (1, 2, 4, 8)
        assert hat(seq((0,), Tail.constant(0)), 5).elements == (1, 2, 3, 4, 5)

    def test_unknown_horizon_bound(self):
        f = seq(tuple(range(1, 11)), Tail.unknown())
        assert hat_horizon(f) == 20
        assert hat(f, 20).elements == tuple(range(2, 21, 2))
        with pytest.raises(HorizonExceeded):
            hat(f, 21)

    def test_k_must_be_positive(self):
        with pytest.raises(NotPositive):
            hat(seq((0,), Tail.constant(0)), 0)

    @given(sequences_st(), st.integers(1, 60))
    def test_elements_strictly_increase(self, f, K):
        s = hat(f, K)
        assert all(x < y for x, y in zip(s.elements, s.elements[1:]))
        assert s.horizon == K


class TestFromSet:
    def test_examples(self):
        assert from_set(IntSet((1, 2, 4, 8), 8), True) == seq((0, 0, 1, 4), Tail.infinite())
        assert from_set(IntSet((2, 4, 6, 8, 10), 10), False) == seq((1, 2, 3, 4, 5), Tail.unknown())
        assert from_set(IntSet((), 0), True) == seq((), Tail.infinite())

    def test_intset_validation(self):
        with pytest.raises(NotSorted):
            IntSet((2, 1), 5)
        with pytest.raises(NotSorted):
            IntSet((1, 1), 5)
        with pytest.raises(NotPositive):
            IntSet((0, 1), 5)
        with pytest.raises(HorizonExceeded):
            IntSet((1, 9), 5)

    @pytest.mark.parametrize("elements, error, message", [
        ((0,), NotPositive, "set element must be a positive integer: 0"),
        ((-1,), NotPositive, "set element must be a positive integer: -1"),
        ((True,), NotPositive, "set element must be a positive integer: True"),
        (("x",), NotPositive, "set element must be a positive integer: 'x'"),
        ((1.5,), NotPositive, "set element must be a positive integer: 1.5"),
        ((2, 2), NotSorted, "set elements must be strictly increasing: 2 after 2"),
        ((3, 2), NotSorted, "set elements must be strictly increasing: 2 after 3"),
        ((1, 0), NotPositive, "set element must be a positive integer: 0"),
        ((1, 9), HorizonExceeded, "element 9 lies beyond the horizon 5"),
    ])
    def test_intset_failure_class_and_message(self, elements, error, message):
        with pytest.raises(error) as info:
            IntSet(elements, 5)
        assert type(info.value) is error and str(info.value) == message

    @given(sequences_st(), st.integers(1, 60))
    def test_hat_bijection_agrees_with_f(self, f, K):
        back = from_set(hat(f, K), False)
        for n in range(1, len(back.prefix) + 1):
            assert back.value_at(n) == f.value_at(n)

    @given(st.lists(st.integers(1, 40), unique=True, max_size=12), st.booleans())
    def test_hat_of_from_set_restores(self, elems, complete):
        elems = sorted(elems)
        K = max(elems, default=0)
        s = IntSet(tuple(elems), K)
        f = from_set(s, complete)
        if K >= 1:
            assert hat(f, K).elements == s.elements


@st.composite
def set_pairs(draw):
    """(A, B, K): a split of [1, K + extra] into two sets, a split with one
    element added to A or dropped from both, or two unrelated sets; horizons
    reach K or beyond."""
    K = draw(st.integers(1, 30))
    top = K + draw(st.integers(0, 5))
    a = draw(st.sets(st.integers(1, top)))
    b = set(range(1, top + 1)) - a
    pairing = draw(st.sampled_from(("split", "mutated", "unrelated")))
    if pairing == "unrelated":
        b = draw(st.sets(st.integers(1, top)))
    elif pairing == "mutated":
        e = draw(st.integers(1, top))
        a, b = (a | {e}, b) if draw(st.booleans()) else (a - {e}, b - {e})
    horizon = lambda: top + draw(st.integers(0, 3))
    return IntSet(tuple(sorted(a)), horizon()), IntSet(tuple(sorted(b)), horizon()), K


class TestComplementary:
    def test_evens_and_odds(self):
        A = IntSet(tuple(range(2, 21, 2)), 20)
        B = IntSet(tuple(range(1, 21, 2)), 20)
        assert check_complementary(A, B, 20) == Verdict("partition")

    def test_overlap_outranks_gap(self):
        A = IntSet((1, 3, 5, 6, 8, 10, 11), 12)
        B = IntSet((2, 5, 7, 10, 12), 12)
        assert check_complementary(A, B, 12) == Verdict("overlap", 5)

    def test_gap(self):
        assert check_complementary(IntSet((1, 2, 3), 5), IntSet((5,), 5), 5) == Verdict("gap", 4)

    @given(set_pairs())
    @settings(max_examples=300)
    @example((IntSet((1, 3), 3), IntSet((2,), 3), 3))
    @example((IntSet((1, 3), 4), IntSet((2,), 4), 4))
    @example((IntSet((2, 5), 5), IntSet((1, 3, 5), 5), 4))
    @example((IntSet((1, 4), 6), IntSet((2, 5), 6), 5))  # disjoint, with a gap
    @example((IntSet((1, 2), 4), IntSet((2, 3), 4), 4))  # overlapping, K elements
    @example((IntSet((1, 2, 5), 5), IntSet((4,), 5), 4))  # K elements only uncut
    def test_matches_window_scan(self, case):
        v = check_complementary(*case)
        assert (v.kind, v.witness) == scan_complementary(*case)

    def test_horizon_guard(self):
        with pytest.raises(HorizonExceeded):
            check_complementary(IntSet((1,), 5), IntSet((2,), 5), 6)

    @given(sequences_st(), st.integers(1, 60))
    def test_forward_partition(self, f, K):
        g = invert(f)
        assert check_complementary(hat(f, K), hat(g, K), K) == Verdict("partition")

    @given(sequences_st(), st.integers(0, 2**32))
    @settings(max_examples=60)
    def test_mutation_breaks_partition(self, f, seed):
        g = invert(f)
        f2, g2 = mutate_pair(f, g, random.Random(seed))
        K = 200
        verdict = check_complementary(hat(f2, K), hat(g2, K), K)
        grid_ok = grid_witness(f2, g2, 50, 50) is None
        assert not (verdict.ok and grid_ok)


class TestClassify:
    def test_examples(self):
        assert classify(seq(tuple(range(1, 51)), Tail.unknown())) == "all_finite_unbounded_window"
        assert classify(seq((2, 2), Tail.constant(2))) == "bounded"
        assert classify(seq((0, 0, INF), Tail.infinite())) == "eventually_infinite"

    def test_forced_infinite_unknown_tail(self):
        assert classify(seq((0, INF), Tail.unknown())) == "eventually_infinite"

    def test_requires_monotone(self):
        with pytest.raises(NotNonDecreasing):
            classify(seq((2, 1), Tail.unknown()))
