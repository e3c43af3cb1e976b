#!/usr/bin/env python3
"""Regenerate ``reference.json``, the values the benchmark checks outputs against.

Run from the repository root:  python3 perfbench/make_reference.py

Closed-form values (outage of the two-antenna scheme, epsilon-capacity)
are taken from the package and cross-checked against its quadrature
route.  The single-antenna scheme has no evaluator in the package, so
its outage is integrated here, independently:

    P_out = E_Y[ P(n_bob, (2^R (1 + Y) - 1) / gamma_bar_b) ^ n_alice ],
    Y ~ Gamma(n_eve, gamma_bar_e),

where P is the regularized lower incomplete gamma function (the largest
of n_alice i.i.d. Gamma(n_bob) column norms) and Y is the
eavesdropper's SNR at the selected antenna, independent of the
selection.  No value here depends on a random seed.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from scipy import integrate, special, stats

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tasalamouti import closedform, quadrature, sweeps  # noqa: E402
from tasalamouti.config import Scheme, SystemConfig, db_to_linear  # noqa: E402


def single_tas_outage(n_a: int, n_b: int, n_e: int, gb_db: float, ge_db: float, rate: float) -> float:
    gb, ge = db_to_linear(gb_db), db_to_linear(ge_db)
    growth = 2.0 ** rate

    def integrand(y: float) -> float:
        x = max(growth * (1.0 + y) - 1.0, 0.0) / gb
        return stats.gamma.pdf(y, n_e, scale=ge) * special.gammainc(n_b, x) ** n_a

    upper = stats.gamma.isf(1e-18, n_e, scale=ge)
    value, _ = integrate.quad(integrand, 0.0, upper, epsabs=1e-15, epsrel=1e-11, limit=400)
    return value


def tas_outage(n_a: int, n_b: int, n_e: int, gb_db: float, ge_db: float, rate: float) -> float:
    config = SystemConfig(n_a, n_b, n_e, db_to_linear(gb_db), db_to_linear(ge_db))
    cf = closedform.closed_form_outage(config, rate)
    quad = quadrature.outage_quadrature(config, rate)
    if abs(cf - quad) > sweeps.CF_QUAD_TOL:
        raise SystemExit(f"closed form and quadrature disagree at {config}: {cf} vs {quad}")
    return cf


def figures_rows() -> list[list]:
    rows = []
    for spec in sweeps.build_preset("fig2"):
        for gb_db in spec.values:
            args = (spec.n_alice, spec.n_bob, spec.n_eve, gb_db, spec.gamma_bar_e_db, spec.rate_rs)
            for scheme in spec.schemes:
                p = tas_outage(*args) if scheme is Scheme.TAS_ALAMOUTI else single_tas_outage(*args)
                for ev in spec.evaluators:
                    if ev.applies_to(scheme):
                        rows.append([scheme.value, *args[:4], ev.name, p])
    return rows


def capacity_rows() -> list[list]:
    rows = []
    for spec in [*sweeps.build_preset("fig6"), sweeps.load_sweep_spec(str(HERE / "capacity.yaml"))]:
        for n_a in spec.values:
            config = SystemConfig(
                int(n_a), spec.n_bob, spec.n_eve,
                db_to_linear(spec.gamma_bar_b_db), db_to_linear(spec.gamma_bar_e_db),
            )
            rows.append([
                int(n_a), spec.n_bob, spec.n_eve,
                closedform.eps_outage_capacity(config, spec.epsilon),
            ])
    return rows


def validate_closed_form() -> list[float]:
    return [
        tas_outage(pt["n_alice"], pt["n_bob"], pt["n_eve"], pt["gamma_bar_b_db"],
                   pt["gamma_bar_e_db"], pt["rate_rs"])
        for pt in sweeps.validation_grid("default")
    ]


def main() -> int:
    reference = {
        "figures": figures_rows(),
        "capacity": capacity_rows(),
        "validate": validate_closed_form(),
    }
    for value in reference["validate"]:
        if not math.isfinite(value):
            raise SystemExit("non-finite closed-form reference")
    path = HERE / "reference.json"
    lines = []
    for key, value in reference.items():
        if isinstance(value, list):
            body = ",\n".join(json.dumps(item) for item in value)
            lines.append(f"{json.dumps(key)}: [\n{body}\n]")
        else:
            lines.append(f"{json.dumps(key)}: {json.dumps(value)}")
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
