"""Experiment configs for the certify benchmark, generated from a seed.

The program under test only ever sees the JSON these functions build.
A seed selects one of ``POOL`` input sets per workload; reference rows
for every set are stored in ``reference/`` (see ``record_reference.py``),
so any seed can be checked against rows recorded from known-good code.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

POOL = 16

# Per-segment means: the favoured arm has mean LOW, every other arm HIGH
# (the README config and acceptance criterion 3 use the same values).
LOW, HIGH = 0.2, 0.5


class CapsError(ValueError):
    """A tuned config whose comparator class can exceed its tune caps."""


@dataclass(frozen=True)
class Config:
    name: str
    body: dict

    @property
    def reps(self) -> int:
        return self.body["repetitions"]

    @property
    def rounds(self) -> int:
        return self.reps * self.body["environment"]["T"]

    @property
    def caps(self) -> tuple[float, float] | None:
        """(m0, U0) of an explicitly tuned config, else None."""
        tune = self.body["forecaster"].get("tune")
        return None if tune is None else (float(tune["m0"]), float(tune["U0"]))


def _piecewise(rng: random.Random, d: int, T: int, segments: int) -> dict:
    best: list[int] = []
    for _ in range(segments):
        arm = rng.randrange(d)
        while best and arm == best[-1]:
            arm = rng.randrange(d)
        best.append(arm)
    return {"kind": "piecewise_stationary", "d": d, "T": T,
            "seed": rng.randrange(2 ** 31),
            "segment_lengths": [T // segments] * segments,
            "means": [[LOW if j == arm else HIGH for j in range(d)]
                      for arm in best]}


def _shifting(env: dict, forecaster: dict, reps: int) -> dict:
    return {"environment": env,
            "comparator": {"kind": "piecewise_corner",
                           "segment_lengths": env["segment_lengths"]},
            "forecaster": forecaster, "regret": {"kind": "shifting"},
            "repetitions": reps}


def _grid_d10(rng: random.Random) -> list[Config]:
    d, T, reps = 10, 1000, 8
    env = _piecewise(rng, d, T, 4)
    tuned = {"m0": 4, "U0": T}
    rules = {
        "fixed_share": {"rule": "fixed_share", "tune": tuned},
        "projected": {"rule": "projected", "tune": tuned},
        "max_share": {"rule": "max_share", "eta": 0.3, "alpha": 0.01},
        "decayed_max_share": {"rule": "decayed_max_share", "eta": 0.3,
                              "alpha": 0.01, "gamma": 0.01},
        "time_varying": {"rule": "time_varying", "schedules": "anytime"},
    }
    configs = [Config(name, _shifting(env, fc, reps))
               for name, fc in rules.items()]
    flip = {"environment": {"kind": "adversarial_flip", "d": d, "T": T,
                            "seed": rng.randrange(2 ** 31)},
            "forecaster": {"rule": "fixed_share"},
            "regret": {"kind": "discounted", "schedule": "linear_down"},
            "repetitions": reps}
    return configs + [Config("adversarial_flip", flip)]


def _long_adaptive(rng: random.Random) -> list[Config]:
    d, T, reps = 10, 20_000, 2
    tau0 = T // 4
    body = {"environment": _piecewise(rng, d, T, 8),
            "forecaster": {"rule": "fixed_share",
                           "tune": {"m0": 1, "U0": tau0}},
            "regret": {"kind": "adaptive", "tau0": tau0},
            "repetitions": reps}
    return [Config("fixed_share_adaptive", body)]


def _wide_d1000(rng: random.Random) -> list[Config]:
    d, T, reps = 1000, 2000, 2
    env = _piecewise(rng, d, T, 4)
    return [
        Config("projected", _shifting(
            env, {"rule": "projected", "tune": {"m0": 4, "U0": T}}, reps)),
        Config("decayed_max_share", _shifting(
            env, {"rule": "decayed_max_share", "eta": 0.1, "alpha": 0.01,
                  "gamma": 0.01}, reps)),
    ]


GENERATORS = {"grid_d10": _grid_d10, "long_adaptive": _long_adaptive,
              "wide_d1000": _wide_d1000}
WORKLOADS = tuple(GENERATORS)


def pool_index(seed: int) -> int:
    return seed % POOL


def generate(workload: str, seed: int) -> list[Config]:
    """The workload's configs for ``seed``; refuses configs that break caps."""
    rng = random.Random(f"{workload}/{pool_index(seed)}")
    configs = GENERATORS[workload](rng)
    for config in configs:
        check_caps(config)
    return configs


def comparator_class_limits(body: dict) -> tuple[float, float]:
    """Largest (m, U_sum) any comparator the config certifies against can have.

    A hindsight piecewise-corner comparator switches at most once per
    segment boundary and has mass 1 per round; an adaptive-regret window
    switches on at most once and covers at most tau0 rounds.
    """
    regret = body["regret"]
    if regret["kind"] == "adaptive":
        return 1.0, float(regret["tau0"])
    comparator = body.get("comparator", {})
    if (regret["kind"] == "shifting"
            and comparator.get("kind") == "piecewise_corner"
            and comparator.get("corners") is None):
        return (float(len(comparator["segment_lengths"]) - 1),
                float(body["environment"]["T"]))
    raise CapsError("no comparator-class limits known for this config")


def check_caps(config: Config) -> None:
    """Refuse a tuned config whose comparator class exceeds its caps.

    A tuned bound is a theorem only for comparators with m <= m0 and
    U_sum <= U0, so a pass verdict outside the caps would certify nothing.
    """
    if config.caps is None:
        return
    m0, U0 = config.caps
    m_max, U_max = comparator_class_limits(config.body)
    if m_max > m0 or U_max > U0:
        raise CapsError(f"{config.name}: comparator class reaches m={m_max:g}, "
                        f"U_sum={U_max:g}, beyond tune caps m0={m0:g}, "
                        f"U0={U0:g}")
