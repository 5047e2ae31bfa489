"""The closed forms of entfluct.core, which `analyze` runs on, held against the
array pipeline of the public API (`moments`, `total_variance`, the spin-1 and
two-qubit functions) and LAPACK's determinant, over the benchmark's bulk
states, every preset and every edge state. Bounds, in eps = 2.2e-16: the
expectations within 4 eps and V_tot within 8 eps (two roundings apart on
values up to 2), the basis change within 4 eps, the canonical form rebuilt
within 8 eps, the exact concurrences within CROSS_CHECK_TOL. Every verdict
(CE, nu defined, the cross-check) must be the public pipeline's."""

import io
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import entfluct.cli
from entfluct import (StateVector, canonical_form, concurrence_from_phi, concurrence_spherical, embed_symmetric,
                      fluctuation_report, local_two_qubit_basis, moments, pure_concurrence, spin_generators,
                      spin_projection_operator, to_cartesian, to_spherical, total_variance)
import entfluct.twoqubit
from entfluct.core import (CE_TOL_DEFAULT, CROSS_CHECK_TOL, NU_CUTOFF, SINGLET_NORM, SQRT2, canonical,
                           cartesian_of, pair_concurrence, pair_expectations, spherical_concurrence, spherical_of,
                           spin1_expectations, variance_report)
from entfluct.presets import PRESETS
from entfluct.twoqubit import pair_sectors

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import workloads  # noqa: E402  (bench/workloads.py: the benchmark's seeded and edge states)

EPS = np.finfo(float).eps


def _states():
    rng = np.random.default_rng(0)
    states = [(a, basis) for seed in (0, 1) for b in range(4) for a, basis, _ in workloads.bulk_batch(seed, b)]
    states += [(p.state.amplitudes, p.state.basis_label) for p in PRESETS.values() if p.state is not None]
    states += [(np.asarray(amps(rng) if callable(amps) else amps, dtype=complex), basis)
               for _, basis, _, amps in workloads.EDGE_STATES]
    return states


STATES = _states()
SPIN1_STATES = [(a, basis) for a, basis in STATES if basis != "qubit-pair"]
PAIR_STATES = [a for a, basis in STATES if basis == "qubit-pair"]


def _spin1_pictures(a, basis):
    """(spherical, cartesian) of a spin-1 state: Python complexes by the closed
    forms, StateVectors by the public API."""
    psi = StateVector(a, basis)
    if basis == "spherical":
        return tuple(a.tolist()), cartesian_of(*a.tolist()), psi, to_cartesian(psi)
    return spherical_of(*a.tolist()), tuple(a.tolist()), to_spherical(psi), psi


def test_the_state_sets_are_not_empty():
    assert len(SPIN1_STATES) > 2000 and len(PAIR_STATES) > 500


def test_basis_change_carries_the_spin_operators():
    # <S_k> in the Cartesian picture, with the public cross-product operators, is <S_k> of the spherical one
    s1, axes = spin_generators(1), [spin_projection_operator(e) for e in np.eye(3)]
    for a, basis in SPIN1_STATES:
        sph, cart, sph_psi, _ = _spin1_pictures(a, basis)
        c = np.array(cart)
        in_cartesian = [np.vdot(c, op @ c).real for op in axes]
        assert np.max(np.abs(np.array(in_cartesian) - moments(sph_psi.amplitudes[None], s1)[1][0])) <= 4 * EPS
        assert np.max(np.abs(np.array(spherical_of(*cartesian_of(*sph))) - np.array(sph))) <= 4 * EPS, (basis, a)


def test_spin1_expectations_and_variance_hold_against_moments():
    s1 = spin_generators(1)
    for a, basis in SPIN1_STATES:
        sph, _, sph_psi, _ = _spin1_pictures(a, basis)
        exps = spin1_expectations(*sph)
        assert np.max(np.abs(np.array(exps) - moments(sph_psi.amplitudes[None], s1)[1][0])) <= 4 * EPS, (basis, a)
        v_tot, residual, _ = variance_report(exps, s1.casimir)
        assert abs(v_tot - total_variance(sph_psi, s1)) <= 8 * EPS, (basis, a)
        assert (residual <= CE_TOL_DEFAULT) == (fluctuation_report(sph_psi, s1).ce_residual <= CE_TOL_DEFAULT)


def test_pair_expectations_and_variance_hold_against_moments():
    pair = local_two_qubit_basis()
    for a in PAIR_STATES:
        psi = StateVector(a, "qubit-pair")
        exps = pair_expectations(*a.tolist())
        assert np.max(np.abs(np.array(exps) - moments(psi.amplitudes[None], pair)[1][0])) <= 4 * EPS, a
        v_tot, residual, _ = variance_report(exps, pair.casimir)
        assert abs(v_tot - total_variance(psi, pair)) <= 8 * EPS, a
        assert (residual <= CE_TOL_DEFAULT) == (fluctuation_report(psi, pair).ce_residual <= CE_TOL_DEFAULT)


def test_canonical_form_rebuilds_the_state_and_matches_the_public_one():
    for a, basis in SPIN1_STATES:
        _, cart, _, cart_psi = _spin1_pictures(a, basis)
        theta, phi, mu, nu = canonical(*cart)
        form = canonical_form(cart_psi)
        assert (nu is None) == (form.nu is None), (basis, a)
        assert abs(concurrence_from_phi(phi) - concurrence_from_phi(form.phi)) <= CROSS_CHECK_TOL, (basis, a)
        sin_part = 0.0 if nu is None else 1j * np.sin(phi) * np.array(nu)  # below NU_CUTOFF where nu is None
        rebuilt = np.exp(1j * theta) * (np.cos(phi) * np.array(mu) + sin_part)
        bound = 8 * EPS + (NU_CUTOFF if nu is None else 0.0)
        assert np.max(np.abs(rebuilt - np.array(cart))) <= bound, (basis, a)
        assert abs(np.dot(mu, mu) - 1) <= 4 * EPS and (nu is None or abs(np.dot(nu, nu) - 1) <= 4 * EPS)


def _det_concurrence(pair) -> float:
    """2 |det| of the 2x2 amplitude matrix, by LAPACK."""
    return min(2.0 * abs(np.linalg.det(np.reshape(pair, (2, 2)))), 1.0)


def test_exact_concurrences_hold_against_the_determinant():
    for a, basis in SPIN1_STATES:
        sph, cart, sph_psi, _ = _spin1_pictures(a, basis)
        det = _det_concurrence(embed_symmetric(sph_psi).amplitudes)
        p, z, m = sph
        mid = z / np.sqrt(2.0)
        phi = canonical(*cart)[1]
        for c in (spherical_concurrence(*sph), pair_concurrence(p, mid, mid, m), concurrence_from_phi(phi)):
            assert abs(c - det) <= CROSS_CHECK_TOL, (basis, a)
    for a in PAIR_STATES:
        assert abs(pair_concurrence(*a.tolist()) - _det_concurrence(a)) <= CROSS_CHECK_TOL, a


def test_pair_sectors_hold_against_the_swap_projection():
    # the symmetric part is (1 + SWAP)/2 of the pair and the singlet amplitude its overlap with the
    # singlet, by numpy arrays; an embedded spin-1 state comes back, with no singlet part
    swap, singlet = np.eye(4)[[0, 2, 1, 3]], np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
    rng = np.random.default_rng(4)
    spin1 = [_spin1_pictures(a, basis)[2] for a, basis in SPIN1_STATES[::8]]
    embedded = [embed_symmetric(psi).amplitudes for psi in spin1]
    pairs = PAIR_STATES + embedded + [singlet.astype(complex)]
    for _ in range(2000):
        a = rng.normal(size=4) + 1j * rng.normal(size=4)
        pairs.append(a / np.linalg.norm(a))
    for a in pairs:
        mid, anti, w_s, w_a, triplet = pair_sectors(*a.tolist())
        sym = (a + swap @ a) / 2
        assert np.max(np.abs(np.array([a[0], mid, mid, a[3]]) - sym)) <= EPS, a
        assert abs(anti - np.vdot(singlet, a)) <= 2 * EPS, a
        assert abs(w_s - np.vdot(sym, sym).real) <= 4 * EPS and abs(w_a - abs(anti) ** 2) <= 4 * EPS, a
        assert abs(w_s + w_a - 1) <= 8 * EPS, a
        if np.linalg.norm(sym) < SINGLET_NORM:
            assert triplet is None, a
            continue
        expected = np.array([sym[0], np.sqrt(2.0) * sym[1], sym[3]]) / np.linalg.norm(sym)
        assert np.max(np.abs(np.array(triplet) - expected)) <= 4 * EPS, a
    for psi, chi in zip(spin1, embedded):
        _, anti, _, w_a, triplet = pair_sectors(*chi.tolist())
        assert anti == 0 and w_a == 0
        assert np.max(np.abs(np.array(triplet) - psi.amplitudes)) <= 4 * EPS, psi.amplitudes
    assert pair_sectors(*singlet.tolist())[4] is None


def test_pair_sectors_divide_as_the_embedding_does():
    # the singlet divides by SQRT2 as embed_symmetric and build_analysis do, and the triplet
    # divides by n = sqrt(w_s): no product with a reciprocal, bit for bit, signed zeros too
    pairs = [a for b in range(4) for a, basis, _ in workloads.bulk_batch(0, b) if basis == "qubit-pair"]
    pairs.append(entfluct.twoqubit.singlet().amplitudes)
    assert len(pairs) > 400

    def bits(*values):
        return np.array(values, dtype=complex).view(np.uint64).tolist()

    for a in pairs:
        uu, ud, du, dd = a.tolist()
        mid, anti, w_s, w_a, triplet = pair_sectors(uu, ud, du, dd)
        assert bits(anti) == bits((ud - du) / SQRT2), a
        assert abs(w_s + w_a - 1) <= 4 * EPS, a
        n = math.sqrt(w_s)
        if n < SINGLET_NORM:
            assert triplet is None, a
            continue
        assert bits(*triplet) == bits(uu / n, SQRT2 * mid / n, dd / n), a
    assert pair_sectors(*pairs[-1].tolist())[4] is None


def test_decompose_and_the_public_split_share_one_kernel(monkeypatch):
    calls = []
    monkeypatch.setattr(entfluct.twoqubit, "pair_sectors", lambda *a: calls.append(a) or pair_sectors(*a))
    chi = StateVector((0, 0.6, 0.8, 0), "qubit-pair")
    stdin = '{"basis": "qubit-pair", "components": [[0, 0], [0.6, 0], [0.8, 0], [0, 0]]}'
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert entfluct.cli.main(["decompose", "--format", "json"]) == 0
    entfluct.twoqubit.sector_split(chi)
    assert calls == [chi.components] * 2


def _public_document(a, basis, system, tol):
    """What build_analysis reports, from the array pipeline of the public API."""
    psi = StateVector(a, basis)
    if system == "spin1":
        sph_psi = psi if basis == "spherical" else to_spherical(psi)
        report = fluctuation_report(sph_psi, spin_generators(1), (1.0, 2.0))
        form = canonical_form(psi if basis == "cartesian" else to_cartesian(psi))
        exact = (concurrence_spherical(sph_psi), concurrence_from_phi(form.phi),
                 pure_concurrence(embed_symmetric(sph_psi)))
        concurrences = {"spherical_formula": exact[0],
                        "canonical_phi": exact[1],
                        "variance_ratio": report.concurrence_variance,
                        "two_qubit_det": exact[2]}
        nu_defined = form.nu is not None
    else:
        report = fluctuation_report(psi, local_two_qubit_basis(), (1.0, 1.5))
        exact = (pure_concurrence(psi),)
        concurrences = {"variance_ratio": report.concurrence_variance, "two_qubit_det": exact[0]}
        nu_defined = None
    cross = entfluct.cli._concurrence_json(concurrences, exact)
    return report, cross, nu_defined, bool(report.ce_residual <= tol)


@pytest.mark.parametrize("tol", [CE_TOL_DEFAULT, 0.5])
def test_every_verdict_is_the_public_pipelines(tol):
    for a, basis in STATES:
        system = "two-qubit" if basis == "qubit-pair" else "spin1"
        doc = entfluct.cli.build_analysis(a, basis, system, tol, None)
        report, cross, nu_defined, ce = _public_document(a, basis, system, tol)
        assert doc["ce"]["completely_entangled"] is ce, (basis, a)
        assert doc["concurrence"]["consistent"] is cross["consistent"] is True, (basis, a)
        if nu_defined is not None:
            assert doc["canonical_form"]["nu_defined"] is nu_defined, (basis, a)
        assert np.max(np.abs(np.array(doc["fluctuations"]["expectations"]) - report.expectations)) <= 4 * EPS
        assert abs(doc["fluctuations"]["v_tot"] - report.v_tot) <= 8 * EPS


def test_system_table_holds_the_bases_label_and_casimir():
    # analyze reads them from the table, search builds the basis: the two must agree
    for system, basis in (("spin1", spin_generators(1)), ("two-qubit", local_two_qubit_basis())):
        label, _, dim, casimir, _ = entfluct.cli._SYSTEMS[system]
        assert (label, dim, casimir) == (basis.label, basis.dim, basis.casimir)
