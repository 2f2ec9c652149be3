"""Declarative scheme registry: every comparison column is one entry.

The paper's figures compare *schemes* — named machine configurations
(ext4-dax, software encryption, baseline security, FsEncr, and the
crash-matrix variants).  Historically each consumer re-hardcoded its
scheme tuples; this module makes the column set declarative instead:

* a :class:`SchemeSpec` is a frozen value object naming a base
  :class:`Scheme` plus the config knobs the column pins (persist path,
  recovery wiring, cache partitioning), a display label, and where (if
  anywhere) the scheme sits in the crash-sweep matrix;
* the registry maps canonical names ("fsencr", "fsencr+anubis", ...)
  to specs.  Figure drivers, ``compare_schemes``, ``sweep_matrix`` and
  the CLI all resolve scheme *names* here, so adding a column is one
  ``register_scheme`` call in this file — no five-layer grep-and-edit.

A spec only *describes*: ``configure`` turns it into a
:class:`MachineConfig`, and :class:`~repro.sim.machine.Machine` builds
its parts from that config alone (``tests/test_contracts.py`` lists
every wired component built anywhere else).

Variant semantics: ``model_wpq`` is pinned both ways when set (the
"+wpq" column *is* the explicit persist-path model; ``None`` inherits
the base config's knob).  ``anubis_recovery`` is part of a column's
identity and always pinned — the plain "fsencr" column means
Osiris-only recovery even on an Anubis-enabled base config, and an
Anubis column sizes its shadow table to the metadata cache.
``partitioned_metadata_cache`` is a cache-geometry opt-in: a variant
can turn it on, but base specs inherit whatever geometry the config
carries (so a partitioned Figure-15 cell compares both schemes under
the same cache organisation).

Candidate future columns from related work (PAPERS.md): FOX's hardware
file-auditing engine and KucoFS's kernel/user collaborative protection
path — each would need a new :class:`Scheme` member and its parts in
``Machine.__init__``, plus one ``register_scheme`` call here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple, Union

from .config import MachineConfig, Scheme

__all__ = [
    "SchemeRef",
    "SchemeSpec",
    "register_scheme",
    "canonical_scheme_name",
    "get_scheme",
    "scheme_names",
    "all_specs",
    "crash_matrix_names",
    "secure_scheme_names",
    "comparison_pair",
    "motivation_pair",
    "spec_for_config",
]

#: Anything the registry can resolve: a canonical name, a base
#: :class:`Scheme` member, or a :class:`SchemeSpec` itself.
SchemeRef = Union[str, Scheme, "SchemeSpec"]


@dataclass(frozen=True)
class SchemeSpec:
    """One comparison column, by value.

    ``configure`` projects the spec onto a base :class:`MachineConfig`;
    the machine's structure follows from ``scheme`` alone.
    """

    name: str                       # canonical registry key
    scheme: Scheme                  # base enum (config identity, run labels)
    label: str                      # human-readable column label
    description: str = ""
    #: None inherits the base config's WPQ model; True/False pins it.
    model_wpq: Optional[bool] = None
    #: Anubis shadow-table recovery wiring (always pinned — identity).
    anubis_recovery: bool = False
    #: Opt the metadata cache into per-kind partitioning.
    partitioned_metadata_cache: bool = False
    #: Column position in the crash-sweep matrix; None = not a column.
    crash_matrix_order: Optional[int] = None
    #: Figure-default role: "baseline" | "contribution" |
    #: "plain-reference" | "software-reference".
    role: Optional[str] = None

    def configure(self, base: Optional[MachineConfig] = None) -> MachineConfig:
        """Project this column onto ``base`` (default machine if None)."""
        config = (base or MachineConfig()).with_scheme(self.scheme)
        if self.model_wpq is not None and config.model_wpq != self.model_wpq:
            config = config.with_wpq(self.model_wpq)
        if config.anubis_recovery != self.anubis_recovery:
            config = config._replace(anubis_recovery=self.anubis_recovery)
        if self.partitioned_metadata_cache and not config.metadata_cache.partitioned:
            config = config._replace(
                metadata_cache=replace(config.metadata_cache, partitioned=True)
            )
        if self.anubis_recovery:
            # One shadow slot per metadata-cache line: the shadow can
            # never overflow while mirroring the cache's dirty set.
            cache = config.metadata_cache
            config = config._replace(anubis_shadow_lines=max(1, cache.size_bytes // cache.line_size))
        return config


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: Dict[str, SchemeSpec] = {}


def register_scheme(spec: SchemeSpec) -> SchemeSpec:
    """Add one column to the registry; names are unique forever."""
    if spec.name in _REGISTRY:
        raise ValueError(f"scheme {spec.name!r} already registered")
    _REGISTRY[spec.name] = spec
    return spec


def canonical_scheme_name(scheme) -> str:
    """The registry key for a name, :class:`Scheme`, or spec.

    String names are the canonical currency (compare-cell scheme tuples,
    ``WorkloadComparison.runs`` keys, CLI arguments); enums map to their
    base column.
    """
    if isinstance(scheme, SchemeSpec):
        return scheme.name
    if isinstance(scheme, Scheme):
        return scheme.value
    key = str(scheme).strip().lower()
    if key not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown scheme {scheme!r} (registered: {known})")
    return key


def get_scheme(scheme) -> SchemeSpec:
    """Resolve a name/enum/spec to its registered :class:`SchemeSpec`."""
    return _REGISTRY[canonical_scheme_name(scheme)]


def scheme_names() -> Tuple[str, ...]:
    """Every registered column name, sorted."""
    return tuple(sorted(_REGISTRY))


def all_specs() -> Tuple[SchemeSpec, ...]:
    """Every registered spec, in name order."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def crash_matrix_names() -> Tuple[str, ...]:
    """The crash-sweep matrix's scheme columns, in matrix order."""
    ordered = sorted(
        (spec.crash_matrix_order, spec.name)
        for spec in _REGISTRY.values()
        if spec.crash_matrix_order is not None
    )
    return tuple(name for _order, name in ordered)


def secure_scheme_names() -> Tuple[str, ...]:
    """Every column whose machine has a secure memory controller, sorted:
    the ones a crash sweep can run."""
    return tuple(
        name for name in sorted(_REGISTRY) if _REGISTRY[name].scheme.has_secure_controller
    )


def _role(role: str) -> str:
    for name in sorted(_REGISTRY):
        if _REGISTRY[name].role == role:
            return name
    raise LookupError(f"no scheme registered with role {role!r}")


def comparison_pair() -> Tuple[str, str]:
    """(baseline, contribution) — the default pair of Figures 8-15."""
    return (_role("baseline"), _role("contribution"))


def motivation_pair() -> Tuple[str, str]:
    """(plain reference, software encryption) — Figure 3's pair."""
    return (_role("plain-reference"), _role("software-reference"))


def spec_for_config(config: MachineConfig) -> SchemeSpec:
    """The registered spec that best describes ``config``.

    Exact variant match when one exists (so labels stay honest), the
    scheme's base spec otherwise.  A machine's structure only depends on
    its :class:`Scheme`; wiring knobs (WPQ, Anubis, partitioning) are
    read off the config itself.
    """
    candidates = [
        spec
        for spec in _REGISTRY.values()
        if spec.scheme is config.scheme
        and spec.anubis_recovery == config.anubis_recovery
        and (not spec.partitioned_metadata_cache or config.metadata_cache.partitioned)
        and (spec.model_wpq is None or spec.model_wpq == config.model_wpq)
    ]
    if not candidates:
        return _REGISTRY[config.scheme.value]

    def _specificity(spec: SchemeSpec):
        pins = (
            int(spec.anubis_recovery)
            + int(spec.partitioned_metadata_cache)
            + int(spec.model_wpq is not None)
        )
        return (pins, spec.name)

    return max(candidates, key=_specificity)


# ----------------------------------------------------------------------
# The columns (one registration each — this is the extension point)
# ----------------------------------------------------------------------

register_scheme(
    SchemeSpec(
        name="conventional",
        scheme=Scheme.CONVENTIONAL,
        label="Conventional FS (page cache)",
        description="Figure 1(a)'s pre-DAX background: page cache, no encryption.",
    )
)

register_scheme(
    SchemeSpec(
        name="ext4dax_plain",
        scheme=Scheme.EXT4DAX_PLAIN,
        label="ext4-dax (no encryption)",
        role="plain-reference",
        description="Figure 3's reference: direct access, no encryption anywhere.",
    )
)

register_scheme(
    SchemeSpec(
        name="software_encryption",
        scheme=Scheme.SOFTWARE_ENCRYPTION,
        label="eCryptfs software encryption",
        role="software-reference",
        description="Figure 3's loser: software crypto through the page cache, DAX off.",
    )
)

register_scheme(
    SchemeSpec(
        name="baseline_secure",
        scheme=Scheme.BASELINE_SECURE,
        label="Baseline Security",
        role="baseline",
        crash_matrix_order=1,
        description="Counter-mode memory encryption + BMT, no file layer.",
    )
)

register_scheme(
    SchemeSpec(
        name="fsencr",
        scheme=Scheme.FSENCR,
        label="FsEncr",
        role="contribution",
        crash_matrix_order=0,
        description="The contribution: baseline + hardware filesystem encryption.",
    )
)

register_scheme(
    SchemeSpec(
        name="fsencr+wpq",
        scheme=Scheme.FSENCR,
        label="FsEncr + WPQ persist model",
        model_wpq=True,
        crash_matrix_order=2,
        description="FsEncr with the explicit Write Pending Queue persist path.",
    )
)


register_scheme(
    SchemeSpec(
        name="fsencr+anubis",
        scheme=Scheme.FSENCR,
        label="FsEncr + Anubis shadow recovery",
        anubis_recovery=True,
        crash_matrix_order=3,
        description=(
            "FsEncr with Anubis shadow-table recovery: extra shadow-region "
            "writes at runtime buy recovery proportional to the metadata "
            "cache, not the memory footprint."
        ),
    )
)

register_scheme(
    SchemeSpec(
        name="fsencr+partitioned",
        scheme=Scheme.FSENCR,
        label="FsEncr + partitioned metadata cache",
        partitioned_metadata_cache=True,
        description=(
            "FsEncr with the metadata cache statically partitioned per "
            "kind (MECB/FECB/Merkle/OTT) — the Figure 15 variant axis."
        ),
    )
)
