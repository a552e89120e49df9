"""Tests for QUBO/Ising representations, conversion exactness, and the brute-force oracle."""

import itertools

import numpy as np
import pytest

from sbtrader.ising import (
    IsingProblem,
    QuboProblem,
    brute_force_min,
    ising_energy,
    load_matrix,
    qubo_energy,
    qubo_to_ising,
    save_matrix,
)


def all_bit_vectors(n):
    for combo in itertools.product((0.0, 1.0), repeat=n):
        yield np.array(combo)


def random_symmetric(n, rng, scale=1.0):
    m = rng.normal(0, scale, (n, n))
    return (m + m.T) / 2.0


class TestQuboEnergy:
    def test_single_diagonal_term(self):
        p = QuboProblem(np.array([[-1.0, 0.0], [0.0, 0.0]]))
        assert qubo_energy(p, np.array([1, 0])) == -1.0

    def test_all_zero_selection(self):
        p = QuboProblem(np.random.default_rng(0).normal(size=(5, 5)))
        assert qubo_energy(p, np.zeros(5)) == 0.0

    def test_off_diagonal_pair(self):
        p = QuboProblem(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert qubo_energy(p, np.array([1, 1])) == 2.0

    def test_dimension_mismatch(self):
        p = QuboProblem(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            qubo_energy(p, np.array([1, 0]))

    def test_non_binary_entries(self):
        p = QuboProblem(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            qubo_energy(p, np.array([0.5, 0.0]))


class TestIsingEnergy:
    def test_null_problem(self):
        p = IsingProblem(j=np.zeros((3, 3)), h=np.zeros(3))
        assert ising_energy(p, np.array([1, -1, 1])) == 0.0

    def test_two_spin_converted_values(self):
        # exhaustive oracle below pins these; asserting the concrete numbers too
        p = IsingProblem(j=np.array([[0.0, -0.5], [-0.5, 0.0]]), h=np.array([0.5, 0.5]), offset=0.5)
        assert ising_energy(p, np.array([1, 1])) == pytest.approx(2.0, abs=1e-12)
        assert ising_energy(p, np.array([-1, -1])) == pytest.approx(0.0, abs=1e-12)

    def test_dimension_mismatch(self):
        p = IsingProblem(j=np.zeros((3, 3)), h=np.zeros(3))
        with pytest.raises(ValueError):
            ising_energy(p, np.array([1, -1]))

    def test_asymmetric_j_rejected(self):
        with pytest.raises(ValueError):
            IsingProblem(j=np.array([[0.0, 1.0], [0.5, 0.0]]), h=np.zeros(2))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError):
            IsingProblem(j=np.eye(2), h=np.zeros(2))


class TestQuboToIsing:
    def test_single_diagonal(self):
        p = QuboProblem(np.array([[-1.0, 0.0], [0.0, 0.0]]))
        conv = qubo_to_ising(p)
        assert np.all(conv.j == 0.0)
        assert conv.h == pytest.approx([-0.5, 0.0])
        assert conv.offset == pytest.approx(-0.5)

    def test_off_diagonal(self):
        p = QuboProblem(np.array([[0.0, 1.0], [1.0, 0.0]]))
        conv = qubo_to_ising(p)
        assert conv.j[0, 1] == pytest.approx(-0.5)
        assert conv.h == pytest.approx([0.5, 0.5])
        assert conv.offset == pytest.approx(0.5)

    def test_null_problem(self):
        conv = qubo_to_ising(QuboProblem(np.zeros((4, 4))))
        assert np.all(conv.j == 0.0) and np.all(conv.h == 0.0) and conv.offset == 0.0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            qubo_to_ising(QuboProblem(np.array([[0.0, 1.0], [0.0, 0.0]])))

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_exhaustive_energy_equality(self, n):
        rng = np.random.default_rng(n)
        for _ in range(5):
            p = QuboProblem(random_symmetric(n, rng))
            conv = qubo_to_ising(p)
            for b in all_bit_vectors(n):
                assert qubo_energy(p, b) == pytest.approx(
                    ising_energy(conv, 2 * b - 1), abs=1e-9
                )

    def test_randomized_equality_larger_n(self):
        rng = np.random.default_rng(99)
        p = QuboProblem(random_symmetric(40, rng))
        conv = qubo_to_ising(p)
        for _ in range(200):
            b = rng.integers(0, 2, 40).astype(float)
            assert qubo_energy(p, b) == pytest.approx(ising_energy(conv, 2 * b - 1), abs=1e-9)

    def test_zero_diagonal_and_symmetry(self):
        rng = np.random.default_rng(3)
        conv = qubo_to_ising(QuboProblem(random_symmetric(9, rng)))
        assert np.all(np.diag(conv.j) == 0.0)
        assert np.array_equal(conv.j, conv.j.T)

    def test_argmin_preserved(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            p = QuboProblem(random_symmetric(8, rng))
            conv = qubo_to_ising(p)
            best_b, best_e = brute_force_min(p)
            spin_energies = {
                tuple(b): ising_energy(conv, 2 * b - 1) for b in all_bit_vectors(8)
            }
            assert min(spin_energies.values()) == pytest.approx(best_e, abs=1e-9)
            assert spin_energies[tuple(best_b)] == pytest.approx(best_e, abs=1e-9)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        q = random_symmetric(7, rng)
        perm = rng.permutation(7)
        p = QuboProblem(q)
        p_perm = QuboProblem(q[np.ix_(perm, perm)])
        for _ in range(20):
            b = rng.integers(0, 2, 7).astype(float)
            assert qubo_energy(p_perm, b[perm]) == pytest.approx(qubo_energy(p, b), abs=1e-12)


class TestBruteForce:
    def test_single_negative_diagonal(self):
        b, e = brute_force_min(QuboProblem(np.array([[-1.0, 0.0], [0.0, 0.0]])))
        assert np.array_equal(b, [1, 0]) and e == -1.0

    def test_tie_break_lowest_integer(self):
        b, e = brute_force_min(QuboProblem(np.zeros((4, 4))))
        assert np.array_equal(b, np.zeros(4)) and e == 0.0

    def test_guard_on_large_n(self):
        with pytest.raises(ValueError):
            brute_force_min(QuboProblem(np.zeros((25, 25))))

    def test_matches_independent_enumeration(self):
        # second, structurally different enumeration (pure python, itertools)
        rng = np.random.default_rng(11)
        for _ in range(5):
            q = random_symmetric(8, rng)
            scored = []
            for bits in itertools.product((0, 1), repeat=8):
                b = np.array(bits, dtype=float)
                key = sum(v << i for i, v in enumerate(bits))
                scored.append((float(b @ q @ b), key))
            emin = min(e for e, _ in scored)
            expect_key = min(k for e, k in scored if e <= emin + 1e-12)
            b, e = brute_force_min(QuboProblem(q))
            assert e == pytest.approx(emin, abs=1e-12)
            assert sum(int(v) << i for i, v in enumerate(b)) == expect_key

    def test_chunked_enumeration_consistent(self):
        # n=17 crosses the chunk boundary (2^16)
        rng = np.random.default_rng(23)
        q = np.zeros((17, 17))
        q[16, 16] = -1.0
        b, e = brute_force_min(QuboProblem(q))
        assert e == -1.0 and b[16] == 1 and b[:16].sum() == 0


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        m = random_symmetric(6, rng)
        path = tmp_path / "m.txt"
        save_matrix(path, m)
        assert np.array_equal(load_matrix(path), m)

    def test_manifest_comment_skipped(self, tmp_path):
        path = tmp_path / "m.txt"
        save_matrix(path, np.eye(2), manifest="days: a,b")
        assert "# days: a,b" in path.read_text().splitlines()[0]
        assert np.array_equal(load_matrix(path), np.eye(2))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1.0 2.0\n1.0 oops\n")
        with pytest.raises(ValueError, match=":3"):
            load_matrix(path)

    def test_wrong_row_width(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1.0 2.0 3.0\n")
        with pytest.raises(ValueError, match="expected 2 entries"):
            load_matrix(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_matrix(path)
