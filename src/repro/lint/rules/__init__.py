"""Rule registry: importing this package registers every rule."""

from .base import RULES, Rule, register

# Import order fixes the order rules run in (and tie-break ordering of
# findings on the same line); keep alphabetical by module.
from . import bit_width  # noqa: F401  (registration side effect)
from . import builder_owns_wiring  # noqa: F401
from . import config_not_component  # noqa: F401
from . import counter_overflow  # noqa: F401
from . import cycle_accounting  # noqa: F401
from . import determinism  # noqa: F401
from . import key_hygiene  # noqa: F401
from . import stats_registered  # noqa: F401
from . import wpq_persist  # noqa: F401

__all__ = ["RULES", "Rule", "register"]
