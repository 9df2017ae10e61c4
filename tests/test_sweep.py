"""Sweep regression: 73 configs end to end; the first 70 against outcomes
recorded at version 0.5.0, before the H1 norms were read from held Laplacians.

The grid part is n in {8, 16, 32, 64} x p in {1.5, 3, 5, 7} x coupling
{constant 1, sine_bump 1e3} x (forcing fraction, safety) in {(1, 1), (0.5, 2)};
nine special configs follow: the two benchmark workloads, the n=12 audit
config, a stiff 1e8 coupling at n=6, p=400 at n=8 and p=1.01 at n=16, then
three absolute forcings recorded at version 0.9.0, when the start came to
take the sign of <f, e1> and to fall back to u = 0: a 1e-7 constant, too
small for any multiple of e1 to register, and two negative forcings, the
first with the energy of its positive twin. Each run must verify with the
recorded iterations, stop reason, mixed steps and failed checks, and an
energy within 1e-12 relative: a hot-path change that only reorders rounding
passes, one that moves a stop decision does not.
The n=64 configs take about 1.5 s together and run only with SPBALL_SLOW=1.
"""

import itertools
import os

import pytest

from spball.runner import ExperimentConfig, run_experiment

ENERGY_RTOL = 1e-12


def grid_configs():
    for n, p, (kind, amp), (fraction, safety) in itertools.product(
        (8, 16, 32, 64),
        (1.5, 3.0, 5.0, 7.0),
        (("constant", 1), ("sine_bump", 1e3)),
        ((1.0, 1.0), (0.5, 2.0)),
    ):
        key = f"n{n}-p{p:g}-{kind}{amp:g}-f{fraction:g}-s{safety:g}"
        yield key, {
            "grid_n": n, "p": p, "coupling": {kind: amp},
            "forcing": {"scaled_to_bound": fraction}, "safety": safety,
        }


SPECIAL_CONFIGS = {
    "solve-n32": {"grid_n": 32, "p": 7.0, "coupling": {"constant": 1},
                  "forcing": {"scaled_to_bound": 0.5}, "samples": 64},
    "descent-n32": {"grid_n": 32, "p": 3.0, "coupling": {"constant": 1},
                    "forcing": {"scaled_to_bound": 1.0}, "safety": 1.0, "samples": 1},
    "audit-n12": {"grid_n": 12, "p": 7.0, "coupling": {"constant": 1},
                  "forcing": {"scaled_to_bound": 0.5}, "samples": 512},
    "n6-p7-sine_bump1e8": {"grid_n": 6, "p": 7.0, "coupling": {"sine_bump": 1e8},
                           "forcing": {"scaled_to_bound": 0.5}},
    "n8-p400": {"grid_n": 8, "p": 400.0, "coupling": {"constant": 1},
                "forcing": {"scaled_to_bound": 0.5}},
    "n16-p1.01-sine_bump5": {"grid_n": 16, "p": 1.01, "coupling": {"sine_bump": 5},
                             "forcing": {"scaled_to_bound": 0.5}},
    "n8-p7-constant1e-7": {"grid_n": 8, "p": 7.0, "coupling": {"constant": 1},
                           "forcing": {"constant": 1e-7}},
    "n8-p3-forcing-constant-1": {"grid_n": 8, "p": 3.0, "coupling": {"constant": 1},
                                 "forcing": {"constant": -1}},
    "n16-p7-sine_bump1e3-forcing-sine_bump-0.1": {
        "grid_n": 16, "p": 7.0, "coupling": {"sine_bump": 1e3}, "forcing": {"sine_bump": -0.1},
    },
}
CONFIGS = {**dict(grid_configs()), **SPECIAL_CONFIGS}

# config id -> (iterations, stop_reason, mixed_steps, failed_checks, energy)
EXPECTED = {
    "n8-p1.5-constant1-f1-s1": (3, "fixed_point", 2, (), -293.22782025361835),
    "n8-p1.5-constant1-f0.5-s2": (3, "fixed_point", 2, (), -28.222940649375985),
    "n8-p1.5-sine_bump1000-f1-s1": (4, "fixed_point", 3, (), -0.0005957167881417754),
    "n8-p1.5-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -7.602198968531251e-05),
    "n8-p3-constant1-f1-s1": (4, "fixed_point", 3, (), -11.206300255054515),
    "n8-p3-constant1-f0.5-s2": (2, "fixed_point", 1, (), -1.339340762049919),
    "n8-p3-sine_bump1000-f1-s1": (4, "fixed_point", 3, (), -0.0006006006979253172),
    "n8-p3-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -7.731099459882034e-05),
    "n8-p5-constant1-f1-s1": (3, "fixed_point", 2, (), -2.532721970734974),
    "n8-p5-constant1-f0.5-s2": (2, "fixed_point", 1, (), -0.44481917574841695),
    "n8-p5-sine_bump1000-f1-s1": (4, "fixed_point", 3, (), -0.0006006325709065408),
    "n8-p5-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -7.731533491214229e-05),
    "n8-p7-constant1-f1-s1": (2, "fixed_point", 1, (), -1.5064007140492315),
    "n8-p7-constant1-f0.5-s2": (1, "fixed_point", 0, (), -0.29849360282900156),
    "n8-p7-sine_bump1000-f1-s1": (4, "fixed_point", 3, (), -0.0006006326059671244),
    "n8-p7-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -7.731533723703614e-05),
    "n16-p1.5-constant1-f1-s1": (3, "fixed_point", 2, (), -303.74560378641763),
    "n16-p1.5-constant1-f0.5-s2": (3, "fixed_point", 2, (), -29.271219408111143),
    "n16-p1.5-sine_bump1000-f1-s1": (4, "fixed_point", 3, (), -0.0006201422522087273),
    "n16-p1.5-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -7.915490271866923e-05),
    "n16-p3-constant1-f1-s1": (4, "fixed_point", 3, (), -11.425418553134866),
    "n16-p3-constant1-f0.5-s2": (2, "fixed_point", 1, (), -1.3656227870323918),
    "n16-p3-sine_bump1000-f1-s1": (4, "fixed_point", 3, (), -0.0006252191882898271),
    "n16-p3-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -8.049486552174492e-05),
    "n16-p5-constant1-f1-s1": (3, "fixed_point", 2, (), -2.5695113068177724),
    "n16-p5-constant1-f0.5-s2": (2, "fixed_point", 1, (), -0.4512928951155007),
    "n16-p5-sine_bump1000-f1-s1": (4, "fixed_point", 3, (), -0.0006252530756492428),
    "n16-p5-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -8.049948199790465e-05),
    "n16-p7-constant1-f1-s1": (2, "fixed_point", 1, (), -1.5273786687623625),
    "n16-p7-constant1-f0.5-s2": (1, "fixed_point", 0, (), -0.3026535925187363),
    "n16-p7-sine_bump1000-f1-s1": (4, "fixed_point", 3, (), -0.000625253114086048),
    "n16-p7-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -8.049948454775221e-05),
    "n32-p1.5-constant1-f1-s1": (3, "fixed_point", 2, (), -306.4167390759365),
    "n32-p1.5-constant1-f0.5-s2": (3, "fixed_point", 2, (), -29.538471527291705),
    "n32-p1.5-sine_bump1000-f1-s1": (3, "fixed_point", 2, (), -0.0006263628431538484),
    "n32-p1.5-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -7.995290563516684e-05),
    "n32-p3-constant1-f1-s1": (4, "fixed_point", 3, (), -11.481428750875267),
    "n32-p3-constant1-f0.5-s2": (2, "fixed_point", 1, (), -1.372335788476245),
    "n32-p3-sine_bump1000-f1-s1": (4, "fixed_point", 3, (), -0.0006314880498119146),
    "n32-p3-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -8.130569091647354e-05),
    "n32-p5-constant1-f1-s1": (3, "fixed_point", 2, (), -2.578836679656515),
    "n32-p5-constant1-f0.5-s2": (2, "fixed_point", 1, (), -0.4529336625027776),
    "n32-p5-sine_bump1000-f1-s1": (4, "fixed_point", 3, (), -0.0006315224540376724),
    "n32-p5-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -8.131037827584956e-05),
    "n32-p7-constant1-f1-s1": (2, "fixed_point", 1, (), -1.5322980576346374),
    "n32-p7-constant1-f0.5-s2": (1, "fixed_point", 0, (), -0.30362937873794904),
    "n32-p7-sine_bump1000-f1-s1": (4, "fixed_point", 3, (), -0.0006315224933593674),
    "n32-p7-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -8.131038088459279e-05),
    "n64-p1.5-constant1-f1-s1": (3, "fixed_point", 2, (), -307.0871146486396),
    "n64-p1.5-constant1-f0.5-s2": (3, "fixed_point", 2, (), -29.605601607945257),
    "n64-p1.5-sine_bump1000-f1-s1": (3, "fixed_point", 2, (), -0.0006279252094859017),
    "n64-p1.5-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -8.015333955998139e-05),
    "n64-p3-constant1-f1-s1": (4, "fixed_point", 3, (), -11.495507306474016),
    "n64-p3-constant1-f0.5-s2": (2, "fixed_point", 1, (), -1.374022849702222),
    "n64-p3-sine_bump1000-f1-s1": (4, "fixed_point", 3, (), -0.0006330624779669992),
    "n64-p3-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -8.150933540980457e-05),
    "n64-p5-constant1-f1-s1": (3, "fixed_point", 2, (), -2.5811768225258027),
    "n64-p5-constant1-f0.5-s2": (2, "fixed_point", 1, (), -0.4533453888200336),
    "n64-p5-sine_bump1000-f1-s1": (4, "fixed_point", 3, (), -0.0006330970122488407),
    "n64-p5-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -8.15140406066726e-05),
    "n64-p7-constant1-f1-s1": (2, "fixed_point", 1, (), -1.5335316738649556),
    "n64-p7-constant1-f0.5-s2": (1, "fixed_point", 0, (), -0.30387407073578365),
    "n64-p7-sine_bump1000-f1-s1": (4, "fixed_point", 3, (), -0.0006330970517951531),
    "n64-p7-sine_bump1000-f0.5-s2": (2, "fixed_point", 1, (), -8.151404323035601e-05),
    "solve-n32": (1, "fixed_point", 0, (), -0.30362937873794904),
    "descent-n32": (4, "fixed_point", 3, (), -11.481428750875267),
    "audit-n12": (1, "fixed_point", 0, (), -0.3016467212738366),
    "n6-p7-sine_bump1e8": (2, "fixed_point", 1, (), -7.39314552867296e-15),
    "n8-p400": (1, "fixed_point", 0, (), -0.00104459649020802),
    "n16-p1.01-sine_bump5": (3, "fixed_point", 2, (), -2.8756112000160905),
    "n8-p7-constant1e-7": (1, "fixed_point", 0, (), -9.209308452487013e-17),
    "n8-p3-forcing-constant-1": (2, "fixed_point", 1, (), -0.009209512629332978),
    "n16-p7-sine_bump1e3-forcing-sine_bump-0.1": (
        2, "fixed_point", 1, (), -2.1149391132293095e-05),
}

SLOW = pytest.mark.skipif(
    os.environ.get("SPBALL_SLOW") != "1", reason="n=64 sweep configs; set SPBALL_SLOW=1"
)


def test_the_sweep_covers_every_recorded_config():
    assert len(CONFIGS) == 73
    assert set(CONFIGS) == set(EXPECTED)


@pytest.mark.parametrize(
    "key",
    [pytest.param(key, marks=SLOW) if CONFIGS[key]["grid_n"] == 64 else key for key in CONFIGS],
)
def test_sweep_config_matches_the_recorded_outcome(key):
    report = run_experiment(ExperimentConfig.from_dict(CONFIGS[key]))
    iterations, stop_reason, mixed_steps, failed_checks, energy = EXPECTED[key]
    summary = report.minimize_summary
    assert report.verification.passed
    assert summary["iterations"] == iterations
    assert summary["stop_reason"] == stop_reason
    assert summary["mixed_steps"] == mixed_steps
    assert report.verification.failed_checks == failed_checks
    assert report.energy == pytest.approx(energy, rel=ENERGY_RTOL, abs=0.0)
