"""Reduction from online convex optimization on the simplex to the
linear forecaster via subgradients.

Feeding the forecaster a subgradient of the convex loss at the played
point makes every linear regret guarantee carry over to the convex
loss, by convexity.  The reduction requires subgradient entries in
[0, 1]; callers must rescale their losses themselves, since silent
rescaling here would change the effective learning rate and invalidate
bound certification.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .forecasters import ForecasterState, as_loss_vector
from .simplex_core import _check_losses


def step_convex(state: ForecasterState,
                value_fn: Callable[[np.ndarray], float],
                subgradient_fn: Callable[[np.ndarray], np.ndarray],
                ) -> tuple[float, ForecasterState]:
    """Advance the wrapped forecaster one round on a convex loss: evaluate
    it at the played distribution, query the subgradient oracle there, and
    update with the subgradient as the round's loss vector.  Returns the
    realized loss and the advanced state."""
    p = state.p
    realized = float(value_fn(p))
    try:
        _check_losses(np.array(realized))
        g = as_loss_vector(subgradient_fn(p), state.d)
    except ValueError as exc:
        raise ValueError(f"convex loss value or subgradient rejected: {exc} "
                         "(rescale the loss before wrapping)") from exc
    state.update(g)
    return realized, state
