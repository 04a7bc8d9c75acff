"""Share forecasters on the simplex with regret-bound certification.

Library layout:

* ``simplex_core``     -- distances, divergences, entropy, KL projection
* ``forecasters``      -- the share forecaster and its mixing rules
* ``regret_eval``      -- shifting / adaptive / discounted regret
* ``bounds``           -- closed-form guarantees and parameter tunings
* ``environments``     -- seeded loss and comparator generators
* ``convex_reduction`` -- subgradient wrapper for convex losses
* ``experiments``      -- config-driven batch runner and CSV reports
* ``cli``              -- the ``simplexshare`` command
"""

from .simplex_core import (as_distribution, as_nonneg_vector, binary_entropy,
                           kl_divergence, kl_project_clipped, total_variation,
                           uniform)
from .forecasters import (ForecasterState, MixingRule, Trajectory,
                          as_loss_vector, certificate_slacks, loss_update,
                          mix_fixed_share, mix_max_share, mix_projected,
                          run_forecaster, small_loss_certificate_slacks,
                          step_time_varying)
from .regret_eval import (adaptive_regret, adaptive_regret_details,
                          discount_regularity, discounted_regret,
                          discounted_regret_details,
                          generalized_shifting_regret, regularity_m,
                          sparsity_n)
from .bounds import (TuneResult, anytime_adaptive_bound, anytime_schedules,
                     bound_adaptive, bound_decayed_max_share,
                     bound_fixed_share, bound_max_share, bound_projected,
                     bound_shared_weights, bound_time_varying,
                     decayed_max_share_gamma, fixed_share_envelope,
                     small_loss_form, tune_fixed_share, tune_small_loss)
from .environments import (AdversarialFlip, ComparatorSpec, EnvironmentSpec,
                           gen_comparator, gen_losses,
                           hindsight_segment_corners, linear_down_discounts,
                           linear_up_discounts, load_losses_csv,
                           make_adversary, make_rng)
from .convex_reduction import step_convex

__version__ = "0.1.0"
