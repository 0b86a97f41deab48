"""Rate-region characterization for an IRS-assisted downlink that carries a
multicast stream to every user and a confidential stream to one of them.

The library jointly tunes the transmit power split and the passive
reflection phases, traces the Pareto boundary of achievable
(multicast rate, secrecy rate) pairs, and ships the benchmark schemes,
feasibility certificates, optimality-gap bounds, and an exhaustive
verification oracle.
"""

from .channel import (ChannelSet, ScenarioConfig, ScenarioError, draw_rician,
                      generate_channels, load_scenario, multi_user_scenario,
                      parse_power_w, path_loss_db, scenario_from_dict,
                      scenario_to_dict, two_user_scenario, upa_response)
from .model import (Feasibility, PowerSplit, alpha_opt_closed_form, build_tk,
                    lift_vectors, effective_gain, effective_gains,
                    feasibility_check, multicast_rate,
                    positive_secrecy_condition, secrecy_rate)
from .sdp import (SdpBatch, SdpSolution, SdpSolverError, SdpStatus,
                  SolverConfig, grp_round, solve_batch, substream)
from .algorithms import (SCHEMES, BoundaryPoint, RegionBoundary, SweepParams,
                         algorithm1_cct, algorithm2_wscm, baseline_no_irs,
                         baseline_random_irs, baseline_tdma, cct_fixed_alpha,
                         multicast_upper_bound, pareto_filter,
                         secrecy_covariance, sweep_region)
from .analysis import (EnhancementReport, IrsEffect, brute_force_oracle,
                       complexity_estimate, enhancement_analysis,
                       gap_bound_general, gap_bound_tight,
                       gap_bound_worst_case, proposition3_classify)

__version__ = "0.1.0"
