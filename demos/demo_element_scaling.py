"""Effect of the surface size in the four-user layout.

For growing element counts, reports the confidential user's maximum secrecy
rate, and then checks which of the other users could get a positive secrecy
rate if they ordered the confidential service instead (impossible without the
surface, since user 1 sits closest to the access point).
"""
from irssec import (generate_channels, grp_round, multi_user_scenario,
                    secrecy_covariance, substream)
from irssec.model import effective_gains, secrecy_rate_from_gains

SEED = 1
P = 1.0


def max_secrecy(ch, rng):
    z_c = secrecy_covariance(ch, P)
    score = lambda vb: secrecy_rate_from_gains(effective_gains(ch, vb), ch.sigma2, P)
    _, sc = grp_round(z_c, 500, score, rng)
    return max(float(sc), 0.0)


print("confidential user 1, growing surface:")
for n_el, (ny, nz) in [(10, (5, 2)), (30, (6, 5)), (60, (10, 6))]:
    config = multi_user_scenario(n_users=4, n_y=ny, n_z=nz, seed=SEED)
    ch = generate_channels(config)
    r = max_secrecy(ch, substream(SEED, n_el))
    print(f"  N={n_el:3d}: max secrecy {r:6.3f} bits")

print("\nother users as the confidential user at N=60:")
config = multi_user_scenario(n_users=4, n_y=10, n_z=6, seed=SEED)
ch = generate_channels(config)
for j in (1, 2, 3):
    r = max_secrecy(ch.with_confidential_user(j), substream(SEED, 100 + j))
    verdict = "positive" if r > 1e-6 else "zero"
    print(f"  user {j + 1}: max secrecy {r:6.3f} bits ({verdict})")
