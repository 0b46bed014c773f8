import numpy as np
import pytest

from wlpcert import (
    InstanceError,
    ParseError,
    Weights,
    ZeroOneInstance,
    ceil_recover,
    format_instance,
    from_independent_set,
    mis_recover,
    parse_graph,
    parse_instance,
    random_instance,
    to_standard_form,
)

from conftest import EX1_TEXT
from _oracles import covering_lp, enumerate_binary_minimum


class TestParse:
    def test_example1_file(self, ex1):
        inst, weights = parse_instance(EX1_TEXT)
        assert weights is None
        np.testing.assert_array_equal(inst.A, ex1.A)
        np.testing.assert_array_equal(inst.b, ex1.b)

    def test_smallest_legal_input(self):
        inst, _ = parse_instance("1 1\n0\n0\n")
        assert inst.m == inst.n == 1
        assert inst.A[0, 0] == 0.0

    def test_negative_entry(self):
        with pytest.raises(ParseError, match="line 2.*negative entry"):
            parse_instance("1 2\n1 -3\n1\n")

    def test_non_numeric_token(self):
        with pytest.raises(ParseError, match="non-numeric"):
            parse_instance("1 1\nfoo\n1\n")

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError, match="expected 2 entries"):
            parse_instance("1 2\n1\n1\n")

    def test_weights_line(self):
        inst, weights = parse_instance("1 2\n1 1\n1\nc 0.5 1\n")
        assert weights is not None
        np.testing.assert_allclose(weights.c, [0.5, 1.0])

    def test_weight_out_of_range(self):
        with pytest.raises(ParseError, match=r"c entry outside \(0, 1\]"):
            parse_instance("1 2\n1 1\n1\nc 0.5 1.5\n")

    def test_roundtrip_through_format(self, ex1):
        text = format_instance(ex1, Weights(np.array([0.5, 0.7, 0.8])))
        inst, weights = parse_instance(text)
        np.testing.assert_array_equal(inst.A, ex1.A)
        np.testing.assert_array_equal(inst.b, ex1.b)
        np.testing.assert_array_equal(weights.c, [0.5, 0.7, 0.8])

    @pytest.mark.parametrize("seed", range(20))
    def test_random_instance_roundtrips_exactly(self, seed):
        # b is a random float; 12 significant digits lost its last bits.
        inst = random_instance(4, 6, seed)
        parsed, _ = parse_instance(format_instance(inst))
        assert parsed.digest() == inst.digest()

    def test_integers_print_without_point(self, ex1):
        assert format_instance(ex1) == EX1_TEXT.split("\n", 1)[1]


class TestInstanceInvariants:
    def test_rejects_negative_matrix(self):
        with pytest.raises(InstanceError, match="negative"):
            ZeroOneInstance(A=np.array([[-1.0]]), b=np.array([1.0]))

    def test_rejects_nan_rhs(self):
        with pytest.raises(InstanceError):
            ZeroOneInstance(A=np.array([[1.0]]), b=np.array([np.nan]))

    def test_rejects_bad_weights(self):
        with pytest.raises(InstanceError):
            Weights(c=np.array([0.0, 1.0]))
        with pytest.raises(InstanceError):
            Weights(c=np.array([1.2]))


class TestStandardForm:
    def test_example1_blocks(self, ex1):
        sf = to_standard_form(ex1)
        assert sf.shape == (6, 3)
        assert not sf.flags.writeable
        np.testing.assert_array_equal(
            sf,
            [[1, 2, 0], [0, 1, 1], [1, 0, 2], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        )

    def test_one_by_one(self):
        inst = ZeroOneInstance(A=np.array([[2.0]]), b=np.array([1.0]))
        sf = to_standard_form(inst)
        np.testing.assert_array_equal(sf, [[2], [1]])
        lp = covering_lp(inst.A, inst.b, np.ones(1))
        np.testing.assert_array_equal(lp.ineq_matrix, [[-2]])
        np.testing.assert_array_equal(lp.ineq_rhs, [-1])
        np.testing.assert_array_equal(lp.upper, [1])

    def test_reslice_roundtrip(self):
        inst = random_instance(4, 5, seed=11)
        sf = to_standard_form(inst)
        np.testing.assert_array_equal(sf[:4], inst.A)
        np.testing.assert_array_equal(sf[4:], np.eye(5))
        lp = covering_lp(inst.A, inst.b, np.ones(5))
        np.testing.assert_array_equal(lp.ineq_matrix, -inst.A)
        np.testing.assert_array_equal(lp.ineq_rhs, -inst.b)
        np.testing.assert_array_equal(lp.upper, np.ones(5))


class TestIndependentSetFrontEnd:
    def test_triangle(self):
        inst = from_independent_set(3, [(1, 2), (1, 3), (2, 3)])
        assert inst.A.shape == (3, 3)
        np.testing.assert_array_equal(inst.A.sum(axis=1), [2, 2, 2])
        np.testing.assert_array_equal(inst.b, [1, 1, 1])

    def test_single_edge(self):
        inst = from_independent_set(2, [(1, 2)])
        np.testing.assert_array_equal(inst.A, [[1, 1]])
        np.testing.assert_array_equal(inst.b, [1])

    def test_path_complemented_optimum(self):
        inst = from_independent_set(3, [(1, 2), (2, 3)])
        value, optima = enumerate_binary_minimum(inst.A, inst.b)
        assert value == 1
        assert (0, 1, 0) in optima  # vertex cover {2} => independent set size 2

    def test_rejects_self_loop(self):
        with pytest.raises(InstanceError, match="self-loop"):
            from_independent_set(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InstanceError, match="out of range"):
            from_independent_set(2, [(1, 3)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(InstanceError, match="duplicate"):
            from_independent_set(3, [(1, 2), (2, 1)])

    def test_recover_complement(self):
        inst = from_independent_set(3, [(1, 2), (1, 3), (2, 3)])
        np.testing.assert_array_equal(mis_recover([1, 1, 0], inst), [0, 0, 1])
        np.testing.assert_array_equal(mis_recover([1, 1, 1], inst), [0, 0, 0])

    def test_recover_rejects_fractional(self):
        inst = from_independent_set(2, [(1, 2)])
        with pytest.raises(InstanceError, match="non-binary"):
            mis_recover([0.4, 1.0], inst)

    def test_isolated_vertex_keeps_its_column(self):
        inst = from_independent_set(4, [(1, 2)])
        assert inst.n == 4
        np.testing.assert_array_equal(mis_recover([1, 0, 0, 0], inst), [0, 1, 1, 1])
        with pytest.raises(InstanceError, match="expected 4 entries, got 2"):
            mis_recover([1, 0], inst)

    def test_incidence_rows_sum_to_two(self):
        inst = from_independent_set(5, [(1, 2), (2, 3), (4, 5), (1, 5)])
        np.testing.assert_array_equal(inst.A.sum(axis=1), 2 * np.ones(4))


class TestRandomInstance:
    def test_deterministic(self):
        a = random_instance(3, 3, seed=7, max_entry=2)
        b = random_instance(3, 3, seed=7, max_entry=2)
        np.testing.assert_array_equal(a.A, b.A)
        np.testing.assert_array_equal(a.b, b.b)

    @pytest.mark.parametrize("seed", range(10))
    def test_nonnegative_and_feasible_for_all_ones(self, seed):
        inst = random_instance(4, 5, seed=seed)
        assert np.all(inst.A >= 0)
        assert np.all(inst.A @ np.ones(5) >= inst.b - 1e-12)

    def test_no_zero_columns(self):
        for seed in range(20):
            inst = random_instance(3, 6, seed=seed, max_entry=1)
            assert np.all(inst.A.sum(axis=0) > 0)


class TestCeilRecover:
    def test_example1_point(self):
        np.testing.assert_array_equal(ceil_recover([0.0, 0.5, 0.5]), [0, 1, 1])

    def test_zero_vector(self):
        np.testing.assert_array_equal(ceil_recover([0.0, 0.0, 0.0]), [0, 0, 0])

    def test_mixed(self):
        np.testing.assert_array_equal(ceil_recover([0.2, 0.0, 1.0]), [1, 0, 1])

    def test_out_of_range(self):
        with pytest.raises(InstanceError, match="outside"):
            ceil_recover([1.5])

    @pytest.mark.parametrize("seed", range(10))
    def test_dominates_fractional_point(self, seed):
        rng = np.random.default_rng(seed)
        inst = random_instance(3, 4, seed=seed)
        x = rng.random(4)
        rec = ceil_recover(x)
        assert np.all(inst.A @ rec >= inst.A @ x - 1e-12)
        assert rec.sum() == np.count_nonzero(x > 1e-9)


class TestGraphParse:
    def test_basic(self):
        n, edges = parse_graph("p 3\ne 1 2\ne 2 3\n# done\n")
        assert n == 3 and edges == [(1, 2), (2, 3)]

    def test_missing_p(self):
        with pytest.raises(ParseError, match="'p'"):
            parse_graph("e 1 2\n")
