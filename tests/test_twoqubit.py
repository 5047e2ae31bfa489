import numpy as np
import pytest

from entfluct import (
    StateVector,
    concurrence_spherical,
    embed_symmetric,
    fluctuation_report,
    local_two_qubit_basis,
    project_spin1,
    pure_concurrence,
    sector_split,
    singlet,
    spin_generators,
    swap_qubits,
)
from util import random_state

SQ2 = np.sqrt(2.0)


def sph(components):
    return StateVector(components, "spherical")


def pair(components):
    return StateVector(components, "qubit-pair")


class TestEmbedSymmetric:
    def test_m_plus1(self):
        chi = embed_symmetric(sph([1, 0, 0]))
        assert np.allclose(chi.amplitudes, [1, 0, 0, 0])

    def test_m0_gives_epr(self):
        chi = embed_symmetric(sph([0, 1, 0]))
        assert np.allclose(chi.amplitudes, [0, 1 / SQ2, 1 / SQ2, 0])

    def test_isometry(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a, b = random_state(rng, 3), random_state(rng, 3)
            inner = np.vdot(a.amplitudes, b.amplitudes)
            embedded = np.vdot(
                embed_symmetric(a).amplitudes, embed_symmetric(b).amplitudes
            )
            assert abs(inner - embedded) < 1e-12

    def test_image_swap_symmetric(self):
        rng = np.random.default_rng(22)
        chi = embed_symmetric(random_state(rng, 3))
        assert np.allclose(chi.amplitudes, swap_qubits(chi).amplitudes)

    def test_rejects_cartesian(self):
        with pytest.raises(ValueError):
            embed_symmetric(StateVector([0, 0, 1], "cartesian"))


class TestProjectSpin1:
    def test_epr_maps_to_m0(self):
        chi = pair([0, 1 / SQ2, 1 / SQ2, 0])
        assert np.allclose(project_spin1(chi).amplitudes, [0, 1, 0])

    def test_singlet_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            project_spin1(singlet())

    def test_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            psi = random_state(rng, 3)
            back = project_spin1(embed_symmetric(psi))
            assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-12

    def test_small_antisymmetric_part_renormalized(self):
        eps = 1e-10
        a = np.array([0, 1 / SQ2 + eps, 1 / SQ2 - eps, 0])
        chi = pair(a / np.linalg.norm(a))
        assert np.allclose(project_spin1(chi, tol=1e-9).amplitudes, [0, 1, 0], atol=1e-9)

    def test_large_antisymmetric_part_rejected(self):
        a = np.array([0.5, 0.7, 0.1, 0.5])
        chi = pair(a / np.linalg.norm(a))
        with pytest.raises(ValueError, match="antisymmetric"):
            project_spin1(chi, tol=1e-9)

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tol must be"):
            project_spin1(pair([1.0, 0.0, 0.0, 0.0]), tol=np.nan)


class TestSinglet:
    def test_components(self):
        assert np.allclose(singlet().amplitudes, [0, 1 / SQ2, -1 / SQ2, 0])

    def test_antisymmetric_under_swap(self):
        assert np.allclose(swap_qubits(singlet()).amplitudes, -singlet().amplitudes)

    def test_concurrence_one(self):
        assert pure_concurrence(singlet()) == pytest.approx(1.0)

    def test_orthogonal_to_symmetric_sector(self):
        rng = np.random.default_rng(24)
        s = singlet().amplitudes
        for _ in range(10):
            chi = embed_symmetric(random_state(rng, 3))
            assert abs(np.vdot(s, chi.amplitudes)) < 1e-12


class TestPureConcurrence:
    def test_product_state(self):
        assert pure_concurrence(pair([1, 0, 0, 0])) == 0.0

    def test_pion_zero_flavor_state(self):
        pi0 = pair([1 / SQ2, 0, 0, -1 / SQ2])
        assert pure_concurrence(pi0) == pytest.approx(1.0)

    def test_transfers_spin1_concurrence(self):
        rng = np.random.default_rng(25)
        for _ in range(200):
            psi = random_state(rng, 3)
            assert pure_concurrence(embed_symmetric(psi)) == pytest.approx(
                concurrence_spherical(psi), abs=1e-10
            )


class TestSectors:
    def test_norms_sum_to_one(self):
        rng = np.random.default_rng(26)
        for _ in range(50):
            chi = random_state(rng, 4, "qubit-pair")
            symmetric, anti = sector_split(chi)
            total = np.sum(np.abs(symmetric) ** 2) + abs(anti) ** 2
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_up_down_splits_evenly(self):
        symmetric, anti = sector_split(pair([0, 1, 0, 0]))
        assert np.sum(np.abs(symmetric) ** 2) == pytest.approx(0.5)
        assert abs(anti) ** 2 == pytest.approx(0.5)

    def test_ce_detection_agrees_across_embedding(self):
        rng = np.random.default_rng(27)
        spin1 = spin_generators(1)
        local = local_two_qubit_basis()
        samples = [sph([0, 1, 0]), sph([1 / SQ2, 0, -1 / SQ2]), sph([1, 0, 0])]
        samples += [random_state(rng, 3) for _ in range(10)]
        for psi in samples:
            flag1 = fluctuation_report(psi, spin1, ce_tol=1e-8).ce_flag
            chi = embed_symmetric(psi)
            flag2 = fluctuation_report(chi, local, ce_tol=1e-8).ce_flag
            assert flag1 == flag2

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            pair([1, 1, 0, 0])
        with pytest.raises(ValueError):
            pair([1, 0, 0])
