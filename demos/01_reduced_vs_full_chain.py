"""Reduced dynamics vs. brute force on the full chain.

Builds a qubit system coupled to a train of thermal qubit probes via an
excitation-exchange interaction, constructs the reduced dynamics operator
(RDO) on the 4-dimensional GNS space, and checks that powers of that small
matrix reproduce exact expectations computed by brute force on the
truncated chain S x E_1 x ... x E_m: the oracle evolves the full chain
as a purified vector, applying every step unitary to its own tensor legs,
and applies a spectator's free evolution, which commutes with every later
encounter, once to each window leg that it keeps. One chain evolution, to the largest m,
is read out after every step m that is printed. Then it does the same for
a windowed observable that rides along with the interaction.
"""

import numpy as np

import ries
from ries.linalg import random_hermitian, vec

system, probe = ries.qubit_exchange_model(
    e_s=1.0, e_e=0.9, coupling=0.4, tau=1.1, beta_s=0.7, beta_e=1.3
)
rdo = ries.rdo_from_model(system, probe)
_, sqrt_rho, psi_s = ries.system_gns_data(system)
rho_s = system.gibbs_state()

print("spectrum of M:", np.round(ries.classify(rdo).eigenvalues, 4))
print("in simple-gap class:", ries.classify(rdo).in_class_e)

rng = np.random.default_rng(0)
a_s = random_hermitian(2, rng)
print("\nsystem observable, <psi_S, M^m A_S psi_S> vs full chain:")
ms = range(1, 7)
oracle = ries.full_chain_oracle(
    system, [probe] * ms[-1], ries.ObservableWindow.system_only(a_s, 2), ms, rho_s
)
for m, rhs in zip(ms, oracle):
    lhs = np.vdot(psi_s, np.linalg.matrix_power(rdo.m, m) @ vec(a_s @ sqrt_rho))
    print(f"  m={m}: reduced {lhs.real:+.12f}  oracle {rhs.real:+.12f}  "
          f"|diff| {abs(lhs - rhs):.2e}")

# a window observable A_S x B(-1) x B(0) x B(+1) moving with the interaction
obs = ries.ObservableWindow(
    a_s=a_s, b_list=tuple(random_hermitian(2, rng) for _ in range(3)), l=1, r=1
)
n_mat = ries.reduce_instant(system, [probe] * 3, obs)
print("\nwindowed observable (l = r = 1):")
ms = (3, 4, 5)
oracle = ries.full_chain_oracle(system, [probe] * (ms[-1] + 1), obs, ms, rho_s)
for m, rhs in zip(ms, oracle):
    word = np.linalg.matrix_power(rdo.m, m - 2)
    lhs = np.vdot(psi_s, word @ vec(n_mat @ sqrt_rho))
    print(f"  m={m}: reduced {lhs.real:+.12f}  oracle {rhs.real:+.12f}  "
          f"|diff| {abs(lhs - rhs):.2e}")
