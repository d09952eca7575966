"""Solver toolkit for discounted turn-based two-player zero-sum stochastic games.

Submodules:

* :mod:`sg.game`    - immutable game model, validation, transforms, JSON files
* :mod:`sg.exact`   - Bellman operators and exact solvers (VI/PI/SI), chains
* :mod:`sg.sampler` - generative-model facade, one batched draw over all pairs
* :mod:`sg.qvi`     - variance-reduced Q-value iteration and its driver
* :mod:`sg.checks`  - sequence certification and variance-identity validators
* :mod:`sg.hard`    - worst-case instances for policy/strategy iteration
* :mod:`sg.cli`     - the ``sg`` command-line harness
"""

from .game import (Action, InputError, MAX_PLAYER, MIN_PLAYER, StochasticGame,
                   affine_reward_map, load_game, make_game, mirror,
                   save_game, validate, with_gamma)
from .exact import (best_response, evaluate, flux, greedy_from_q,
                    optimal_value, policy_iteration, q_from_v, ratio_scan,
                    stationary_distribution, strategy_iteration,
                    value_iteration)
from .sampler import BatchEstimate, GenerativeModel
from .qvi import (QviConstants, SolveResult, VSSequence, planned_samples,
                  qvi_mdvss, qvi_mivss, solve)
from .checks import (CheckReport, MarkovianPlan, check_eps_optimal_implication,
                     check_mdvss, check_mivss, markovian_evaluate,
                     variance_bellman_residual, variance_of_value)
from .hard import (Hi1Meta, Hi2Config, Hi2Meta, build_hi1, build_hi2,
                   default_hi2_rewards, hi1_distribution_bounds,
                   hi2_vbar_signs, verify_pi_path_hi1, verify_si_path_hi2)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
