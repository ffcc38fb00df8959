"""Seeded generation of large consolidation scenarios.

The preset scenarios top out at four tenants; server-consolidation studies
need hundreds to thousands.  A :class:`ScenarioRecipe` describes a scenario
*statistically* -- tenant count, server/client class mix, footprint-scale
range, weight skew, scheduling knobs -- and :func:`generate_scenario`
expands it deterministically (seeded ``random.Random``: same recipe gives
the same spec in any process, any worker count) into a plain
:class:`~repro.scenarios.spec.ScenarioSpec` whose tenants reference
*generated* workload names (``gen_<class>_<seed>_<milliscale>``).

Those names are self-describing:
:func:`repro.workloads.suites.workload_spec_by_name` rebuilds the workload
spec from the string alone, so pooled engine workers and the sharded result
cache resolve generated scenarios exactly like preset ones -- no registry
hand-off, no cache-format change.

Memory stays bounded at four-digit tenant counts because a recipe draws its
tenants from a small ``workload_population`` (default 8, capped at the trace
store's LRU bound): a thousand tenants share a handful of distinct
workloads, and every tenant replaying workload W shares the same in-memory
:class:`~repro.traces.trace.Trace` object -- the composer keeps only each
tenant's read position into it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Tuple

from repro.common.config import ISAStyle, require_positive_int
from repro.common.errors import ConfigurationError
from repro.obs import get_recorder
from repro.scenarios.spec import POLICIES, SWITCH_SEMANTICS, ScenarioSpec, TenantSpec
from repro.traces.store import DEFAULT_MAX_TRACES
from repro.workloads.suites import generated_workload_name

#: Distinct workloads a recipe draws from by default.
DEFAULT_POPULATION = 8

#: Hard cap on a recipe's workload population: the trace store's LRU bound.
#: A population beyond it would thrash trace generation at composition time.
MAX_POPULATION = DEFAULT_MAX_TRACES

#: Generated workload seeds are drawn below this bound.
_WORKLOAD_SEED_BOUND = 1 << 31


@dataclass(frozen=True)
class ScenarioRecipe:
    """Statistical description of a generated consolidation scenario.

    ``server_fraction`` sets the server/client class mix of the workload
    population; ``isa`` picks the compiled flavour of the whole population
    (mixed-ISA scenarios are rejected by the composer, so a recipe is
    single-ISA by construction).  ``scale_min``/``scale_max`` bound the
    uniform footprint-scale distribution.  ``weight_skew`` controls the
    scheduling/partition weights: ``0.0`` (default) gives every tenant
    weight 1; positive values draw from ``1 + floor((max_weight - 1) *
    u**weight_skew)`` with ``u`` uniform, so larger skews concentrate high
    weights on fewer tenants.  The remaining knobs pass straight through to
    :class:`~repro.scenarios.spec.ScenarioSpec`.
    """

    name: str
    tenants: int
    seed: int = 0
    server_fraction: float = 0.75
    isa: ISAStyle = ISAStyle.ARM64
    workload_population: int = DEFAULT_POPULATION
    scale_min: float = 0.5
    scale_max: float = 2.0
    weight_skew: float = 0.0
    max_weight: int = 8
    quantum_instructions: int = 8_192
    policy: str = "round_robin"
    switch_semantics: str = "warm"
    shared_fraction: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario recipe needs a name")
        require_positive_int(self.tenants, f"recipe {self.name!r}: tenants")
        require_positive_int(self.workload_population, f"recipe {self.name!r}: workload_population")
        require_positive_int(self.max_weight, f"recipe {self.name!r}: max_weight")
        require_positive_int(
            self.quantum_instructions, f"recipe {self.name!r}: quantum_instructions"
        )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigurationError(
                f"recipe {self.name!r}: seed must be a non-negative int, got {self.seed!r}"
            )
        if self.workload_population > MAX_POPULATION:
            raise ConfigurationError(
                f"recipe {self.name!r}: workload_population {self.workload_population} "
                f"exceeds the trace store bound ({MAX_POPULATION}); a larger population "
                "would regenerate traces mid-composition"
            )
        if not isinstance(self.isa, ISAStyle):
            raise ConfigurationError(f"recipe {self.name!r}: isa must be an ISAStyle")
        for field in ("server_fraction", "shared_fraction"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"recipe {self.name!r}: {field} must be within [0, 1], got {value!r}"
                )
        if (
            isinstance(self.weight_skew, bool)
            or not isinstance(self.weight_skew, (int, float))
            or self.weight_skew < 0
        ):
            raise ConfigurationError(
                f"recipe {self.name!r}: weight_skew must be a non-negative number"
            )
        if not (
            isinstance(self.scale_min, (int, float))
            and isinstance(self.scale_max, (int, float))
            and 0 < self.scale_min <= self.scale_max
        ):
            raise ConfigurationError(
                f"recipe {self.name!r}: need 0 < scale_min <= scale_max, got "
                f"{self.scale_min!r}..{self.scale_max!r}"
            )
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"recipe {self.name!r}: unknown policy {self.policy!r}; "
                f"expected one of {POLICIES}"
            )
        if self.switch_semantics not in SWITCH_SEMANTICS:
            raise ConfigurationError(
                f"recipe {self.name!r}: unknown switch semantics "
                f"{self.switch_semantics!r}; expected one of {SWITCH_SEMANTICS}"
            )

    def config_dict(self) -> Dict[str, object]:
        """Canonical JSON-able form (reports and experiment metadata)."""
        return {
            "name": self.name,
            "tenants": self.tenants,
            "seed": self.seed,
            "server_fraction": float(self.server_fraction),
            "isa": self.isa.value,
            "workload_population": self.workload_population,
            "scale_min": float(self.scale_min),
            "scale_max": float(self.scale_max),
            "weight_skew": float(self.weight_skew),
            "max_weight": self.max_weight,
            "quantum_instructions": self.quantum_instructions,
            "policy": self.policy,
            "switch_semantics": self.switch_semantics,
            "shared_fraction": float(self.shared_fraction),
        }


def _draw_population(recipe: ScenarioRecipe, rng: random.Random) -> Tuple[str, ...]:
    """Draw the recipe's workload population as generated workload names."""
    server_token = "xserver" if recipe.isa is ISAStyle.X86 else "server"
    client_token = "xclient" if recipe.isa is ISAStyle.X86 else "client"
    names = []
    for _ in range(recipe.workload_population):
        token = server_token if rng.random() < recipe.server_fraction else client_token
        scale = rng.uniform(recipe.scale_min, recipe.scale_max)
        workload_seed = rng.randrange(_WORKLOAD_SEED_BOUND)
        names.append(generated_workload_name(token, workload_seed, scale))
    return tuple(names)


def _draw_weight(recipe: ScenarioRecipe, rng: random.Random) -> int:
    if recipe.weight_skew <= 0 or recipe.max_weight == 1:
        return 1
    return 1 + int((recipe.max_weight - 1) * rng.random() ** recipe.weight_skew)


def generate_scenario(recipe: ScenarioRecipe) -> ScenarioSpec:
    """Expand ``recipe`` into a concrete :class:`ScenarioSpec`, deterministically.

    The expansion is a pure function of the recipe (a single seeded
    ``random.Random`` drawn in a fixed order), so the same recipe produces a
    bit-identical spec in every process -- which is what lets a generated
    scenario be pinned into engine jobs and replayed from the result cache
    like any preset.
    """
    recorder = get_recorder()
    with recorder.span(
        "scenario.generate",
        recipe=recipe.name,
        tenants=recipe.tenants,
        population=recipe.workload_population,
        seed=recipe.seed,
    ):
        rng = random.Random(f"scenario-recipe:{recipe.seed}")
        population = _draw_population(recipe, rng)
        width = max(4, len(str(recipe.tenants - 1)))
        tenants = tuple(
            TenantSpec(
                name=f"t{index:0{width}d}",
                workload=population[rng.randrange(len(population))],
                weight=_draw_weight(recipe, rng),
            )
            for index in range(recipe.tenants)
        )
        return ScenarioSpec(
            name=recipe.name,
            tenants=tenants,
            quantum_instructions=recipe.quantum_instructions,
            policy=recipe.policy,
            switch_semantics=recipe.switch_semantics,
            shared_fraction=recipe.shared_fraction,
            description=(
                f"generated: {recipe.tenants} tenants over "
                f"{len(set(population))} workloads "
                f"({recipe.isa.value}, server_fraction={recipe.server_fraction:g}, "
                f"seed={recipe.seed})"
            ),
        )
