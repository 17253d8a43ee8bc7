"""Energy and entropy production in the steady state.

Evaluates the asymptotic per-step energy flux dE+ and entropy flux dS+
three ways for a deterministic probe temperature, and checks the second
law identity dS+ = beta_E dE+:

1. the closed-form steady-state displays (per-encounter flux matrix paired
   with the asymptotic vector theta),
2. the energy-jump window family fed through the ergodic-limit machinery,
3. Monte Carlo accumulation of the jumps along simulated trajectories,
   started from two different initial system states.
"""

import numpy as np

import ries
from ries.thermo import energy_jump_family

system, exchange_probe = ries.qubit_exchange_model(
    e_s=1.2, e_e=0.8, coupling=0.6, tau=0.9, beta_s=0.4, beta_e=1.1
)
# pure exchange conserves the excitation number and gives dE+ = 0 exactly;
# an extra sigma_x x sigma_x term makes the fluxes nonzero
sx = np.array([[0.0, 1.0], [1.0, 0.0]])
probe = ries.ProbeSpec(
    dim_e=2,
    h_e=exchange_probe.h_e,
    beta_e=exchange_probe.beta_e,
    v=exchange_probe.v + 0.3 * np.kron(sx, sx),
    tau=exchange_probe.tau,
)
ens = ries.RrdoEnsemble.from_models(system, [(1.0, probe)])

closed = ries.flux_closed_form(ens)
print(f"closed form: dE+ = {closed.de_plus:+.6e}, dS+ = {closed.ds_plus:+.6e}")
print(f"second law residual dS+ - beta_E dE+ = {closed.residual:+.2e}")

via_jumps = ries.ergodic_instant_limit(ens, energy_jump_family(ens))
print(f"jump-family route: dE+ = {via_jumps.real:+.6e} "
      f"(|diff| = {abs(via_jumps.real - closed.de_plus):.2e})")

for name, rho0 in [
    ("Gibbs", system.gibbs_state()),
    ("ground", np.diag([1.0, 0.0]).astype(complex)),
]:
    mc = ries.flux_monte_carlo(ens, seeds=[0, 1, 2, 3], n_total=20_000, rho_init=rho0)
    print(f"Monte Carlo ({name} start): dE+ = {mc.de_plus:+.6e} "
          f"+- {mc.de_stderr:.1e}, dS+ = {mc.ds_plus:+.6e} +- {mc.ds_stderr:.1e}")

# random probe temperatures: the residual now uses the mean beta
hot = ries.ProbeSpec(dim_e=2, h_e=probe.h_e, beta_e=0.3, v=probe.v, tau=probe.tau)
mixed = ries.RrdoEnsemble.from_models(system, [(0.5, probe), (0.5, hot)])
rep = ries.flux_closed_form(mixed)
print(f"\nrandom beta_E: dE+ = {rep.de_plus:+.6e}, dS+ = {rep.ds_plus:+.6e}, "
      f"dS+ - E[beta] dE+ = {rep.residual:+.3e}")
