"""Shared builders for the canonical test systems, and the pinned
agreement-campaign reports."""

import json
from pathlib import Path

import numpy as np
import pytest

import phs

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
# written by scripts/make_campaign_reports.py
CAMPAIGN_REPORTS = json.loads(
    (Path(__file__).resolve().parent / "data" / "campaign_reports.json").read_text())


def pinned_report(n: int, count: int, seed: int) -> dict:
    """The recorded report of agreement_campaign(n, count, seed)."""
    return CAMPAIGN_REPORTS[f"n={n} count={count} seed={seed}"]


def transport_system(w1: float, w0: float, h=1.0) -> phs.PHSystem:
    """Scalar transport d/dt x = d/dz (H x), boundary w1 (Hx)(1) + w0 (Hx)(0) = 0."""
    return phs.make_system([[1.0]], [[0.0]], [[h]], [[w1, w0]])


def string_system(t_coeffs=(1.0,), rho: float = 1.0) -> phs.PHSystem:
    """Vibrating string: P1 = [[0,1],[1,0]], H = diag(1/rho, T(z)),
    W1 = I, W0 = diag(-1, 1)."""
    deg = len(t_coeffs)
    coeffs = np.zeros((2, 2, deg), dtype=complex)
    coeffs[0, 0, 0] = 1.0 / rho
    coeffs[1, 1, : deg] = t_coeffs
    field = phs.CoefficientField.polynomial(coeffs)
    wb = np.hstack([np.eye(2), np.diag([-1.0, 1.0])])
    return phs.make_system([[0.0, 1.0], [1.0, 0.0]], np.zeros((2, 2)), field, wb)


def network_system() -> phs.PHSystem:
    """Three transport lines with x1(1)=0, x2(1)=x1(0)+x3(0), x3(1)=x2(0)."""
    w0 = np.array([[0, 0, 0], [-1, 0, -1], [0, -1, 0]], dtype=float)
    wb = np.hstack([np.eye(3), w0])
    return phs.make_system(np.eye(3), np.zeros((3, 3)), np.eye(3), wb)


def crossing_system() -> phs.PHSystem:
    """P1 = I with a sampled density interpolating diag(1,2) -> diag(3,1):
    the two eigenvalue curves of P1 H cross at z = 1/3."""
    field = phs.CoefficientField.grid(
        [0.0, 1.0], [np.diag([1.0, 2.0]), np.diag([3.0, 1.0])]
    )
    wb = np.hstack([np.eye(2), np.zeros((2, 2))])
    return phs.make_system(np.eye(2), np.zeros((2, 2)), field, wb)


@pytest.fixture
def transport():
    return transport_system(1.0, 0.0)


@pytest.fixture
def network():
    return network_system()
