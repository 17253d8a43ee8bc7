"""Seeded config generators for the benchmark workloads.

Every config is a plain JSON document built here with numpy only; `ries`
receives nothing but these documents. One workload seed derives every
random choice (the wide_qutrit interaction, its presample seed and every
trajectory seed), so the same seed gives byte-identical configs.

Sizes scale with the run length: a run of FULL_SECONDS or more uses the
full sizes below, a shorter run (the smoke test) shrinks them.
"""

from __future__ import annotations

import numpy as np

FULL_SECONDS = 20
WORKLOADS = ("mc_qubit", "oracle_chain", "wide_qutrit")
# experiments that step random-product trajectories
MC_EXPERIMENTS = ("ergodic", "decay", "reverse", "lyapunov", "instant", "fluxes")

# demo qubit model: e_s = 1.0, e_e = 0.9, exchange coupling 0.4, tau = 1.1,
# beta_s = 0.7, beta_e = 1.3 (as in demos/configs and demos/02)
_QUBIT = {"e_s": 1.0, "e_e": 0.9, "coupling": 0.4, "tau": 1.1, "beta_s": 0.7, "beta_e": 1.3}


def _matrix(a) -> list:
    a = np.asarray(a, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def _model(h_s, beta_s, h_e, beta_e, v, tau) -> dict:
    return {
        "system": {"dim": len(h_s), "h": _matrix(h_s), "beta": float(beta_s)},
        "probe": {
            "dim": len(h_e),
            "h": _matrix(h_e),
            "beta": float(beta_e),
            "v": _matrix(v),
            "tau": float(tau),
        },
    }


def qubit_model(coupling: float = _QUBIT["coupling"]) -> dict:
    """The demo two-level system and probe with excitation-exchange coupling."""
    sp = np.array([[0.0, 1.0], [0.0, 0.0]])
    v = coupling * (np.kron(sp, sp.T) + np.kron(sp.T, sp))
    return _model(
        np.diag([0.0, _QUBIT["e_s"]]),
        _QUBIT["beta_s"],
        np.diag([0.0, _QUBIT["e_e"]]),
        _QUBIT["beta_e"],
        v,
        _QUBIT["tau"],
    )


def qubit_ensemble() -> dict:
    """The demo ensemble: an uncoupled and a coupled encounter, p = 1/2 each."""
    return {
        "atoms": [
            {"p": 0.5, "model": qubit_model(coupling=0.0)},
            {"p": 0.5, "model": qubit_model()},
        ]
    }


def _rng(workload: str, seed: int) -> np.random.Generator:
    tag = WORKLOADS.index(workload)
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), tag])))


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def _scaled(full: int, scale: float, floor: int) -> int:
    return max(floor, int(round(full * scale)))


def _mc_qubit(rng, scale) -> list[tuple[str, dict]]:
    ens = qubit_ensemble()

    def n(full, floor=200):
        return _scaled(full, scale, floor)

    # below n_total 2000 the Monte Carlo burn-in (n_total // 10) leaves a
    # transient bias that fails the instant 3-sigma check on this ensemble
    mc_floor = 2000

    return [
        ("ergodic", {"experiment": "ergodic", "ensemble": ens, "seeds": _seeds(rng, 4),
                     "n_total": n(20_000), "checkpoint_every": 1000}),
        ("decay", {"experiment": "decay", "ensemble": ens, "seeds": _seeds(rng, 8),
                   "n_total": n(1500)}),
        ("reverse", {"experiment": "reverse", "ensemble": ens, "seeds": _seeds(rng, 4),
                     "n_total": n(6000)}),
        ("lyapunov", {"experiment": "lyapunov", "ensemble": ens, "seeds": _seeds(rng, 3),
                      "n_total": n(10_000)}),
        ("instant", {"experiment": "instant", "ensemble": ens, "family": "probe_energy",
                     "seeds": _seeds(rng, 4), "n_total": n(10_000, mc_floor)}),
        ("fluxes", {"experiment": "fluxes", "ensemble": ens, "monte_carlo": True,
                    "seeds": _seeds(rng, 4), "n_total": n(10_000, mc_floor)}),
    ]


def _oracle_chain(rng, scale) -> list[tuple[str, dict]]:
    model = qubit_model()
    # m_max 8 is chain dim 512; dim 1024 costs about 7x more per call
    m_max = 8 if scale >= 0.5 else 4
    return [
        ("oracle-check", {"experiment": "oracle-check", "model": model, "m_max": m_max,
                          "n_observables": 2, "seed": _seeds(rng, 1)[0]}),
        ("ideal", {"experiment": "ideal", "model": model}),
        ("classify", {"experiment": "classify", "model": model}),
    ]


def wide_qutrit_ensemble(rng, count: int) -> dict:
    """Qutrit system, qubit probe, random interaction, presampled tau and coupling."""
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    v = a + a.conj().T
    v *= 0.5 / np.linalg.norm(v, 2)
    model = _model(np.diag([0.0, 1.0, 2.3]), 0.7, np.diag([0.0, 1.1]), 1.3, v, 1.0)
    return {
        "presample": {
            "model": model,
            "count": count,
            "seed": _seeds(rng, 1)[0],
            "tau": {"low": 0.6, "high": 1.6},
            "coupling": {"low": 0.5, "high": 1.5},
        }
    }


def _wide_qutrit(rng, scale) -> list[tuple[str, dict]]:
    ens = wide_qutrit_ensemble(rng, _scaled(64, scale, 4))

    def n(full, floor=200):
        return _scaled(full, scale, floor)

    return [
        # 32 Monte Carlo seeds keep the 3-sigma checks near their nominal
        # false-alarm rate (with 8 the t-tails make it about 2% per check), and
        # n_total stays at 4000 at every scale: these ensembles mix slowly
        # (spr E[M_Q] about 0.98), and with a burn-in of n_total // 10 = 100
        # the transient bias fails the checks on about 4% of models
        ("fluxes", {"experiment": "fluxes", "ensemble": ens, "monte_carlo": True,
                    "seeds": _seeds(rng, 32), "n_total": 4000}),
        ("ergodic", {"experiment": "ergodic", "ensemble": ens, "seeds": _seeds(rng, 2),
                     "n_total": n(4000), "checkpoint_every": 1000}),
        ("decay", {"experiment": "decay", "ensemble": ens, "seeds": _seeds(rng, 4),
                   "n_total": n(500)}),
        # the identity family checks invariance exactly; a statistical family
        # would add a 3-sigma test whose outcome changes with the random model
        ("instant", {"experiment": "instant", "ensemble": ens, "family": "identity",
                     "seeds": _seeds(rng, 8), "n_total": n(4000)}),
    ]


_BUILDERS = {"mc_qubit": _mc_qubit, "oracle_chain": _oracle_chain, "wide_qutrit": _wide_qutrit}


def make_configs(workload: str, seed: int, seconds: float) -> list[tuple[str, dict]]:
    """(name, config document) pairs of one pass over the workload, in run order."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    scale = min(1.0, float(seconds) / FULL_SECONDS)
    return _BUILDERS[workload](_rng(workload, seed), scale)


def mc_steps(cfg: dict) -> int:
    """Random-product steps of one run: seeds x (n_total + burn-in), 0 without MC."""
    exp = cfg["experiment"]
    if exp not in MC_EXPERIMENTS or (exp == "fluxes" and not cfg.get("monte_carlo", True)):
        return 0
    n_total = int(cfg["n_total"])
    seeds = len(cfg["seeds"])
    if exp in ("instant", "fluxes"):
        if exp == "fluxes":
            seeds = max(seeds, 2)
        return seeds * (n_total + mc_burn_in(n_total))
    return seeds * n_total


def mc_burn_in(n_total: int) -> int:
    """Default burn-in of the instant and flux Monte Carlo estimators."""
    return min(int(n_total) // 10, 1000)
