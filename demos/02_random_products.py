"""Random products of reduced dynamics operators.

A two-atom ensemble mixes an uncoupled (v = 0, unitary) encounter with a
gapped one, each with probability 1/2. The demo shows:

- the mean operator stays in the simple-gap class,
- the asymptotic vector theta from two closed-form routes,
- the ergodic convergence of the Cesaro average of Psi_n = M_1...M_n,
- exponential decay of the strictly-contracting words,
- reverse products becoming rank one, and the Lyapunov spectrum.

Every kernel takes a list of seeds (or one seed) and steps them together;
its arrays have one row per seed. Time is blocked as well: the steps are
cut into blocks of at most ceil(sqrt(n_total)) steps that are multiplied
side by side and then chained, so the numbers printed agree with a
one-step-at-a-time loop to about 1e-12, and do not depend on which other
seeds ran.
"""

import numpy as np

import ries

system, probe = ries.qubit_exchange_model(
    e_s=1.0, e_e=0.9, coupling=0.4, tau=1.1, beta_s=0.7, beta_e=1.3
)
probe0 = ries.ProbeSpec(
    dim_e=2, h_e=probe.h_e, beta_e=probe.beta_e, v=0.0 * probe.v, tau=probe.tau
)
ens = ries.RrdoEnsemble.from_models(system, [(0.5, probe0), (0.5, probe)])
print("atoms in class:", ens.in_class)
print("E[M] in class:", ries.classify(ries.mean_rdo(ens)).in_class_e)

routes = ries.theta_routes(ens)
print(f"theta route mismatch: {routes['mismatch']:.2e} "
      f"(spr E[M_Q] = {routes['spr_mean_mq']:.4f})")

print("\nergodic average, D(N) = ||(1/N) sum Psi_n - |psi_S><theta| ||_F:")
rep = ries.simulate_forward(ens, seeds=0, n_total=100_000, checkpoint_every=10_000)
for n, d in zip(rep.checkpoints, rep.distances[0]):
    print(f"  N={n:>7d}  D(N)={d:.3e}   5/sqrt(N)={5.0 / np.sqrt(n):.3e}")

print("\ndecay of ||M_Q(w_1)...M_Q(w_n)|| over 5 seeds:")
est = ries.decay_estimator(ens, range(5), 2000)
for seed, alpha, n0 in zip(est.seeds, est.alpha, est.n0):
    print(f"  seed {seed}: alpha = {alpha:.4f}, n0 = {n0}")

rev = ries.simulate_reverse(ens, seeds=0, n_total=600)
print(f"\nreverse product at n=600: ||Phi_n - |psi_S><eta||| = "
      f"{rev.residuals[0, -1]:.2e}, sigma2/sigma1 = {rev.sigma_ratios[0, -1]:.2e}")

est = ries.lyapunov(ens, seeds=0, n_total=30_000)
print(f"Lyapunov: gamma_1 = {est.gamma_1[0]:+.2e}, gamma_2 = {est.gamma_2[0]:+.4f}, "
      f"gap = {est.gap[0]:.4f}")
