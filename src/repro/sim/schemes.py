"""The scheme table: every comparison column the paper's figures use.

The paper's figures compare *schemes* — named machine configurations
(ext4-dax, software encryption, baseline security, FsEncr, and the
crash-matrix variants).  :data:`SCHEMES` lists them once; figure
drivers, ``compare_schemes``, ``sweep_matrix`` and the CLI resolve
scheme *names* against it, and the three constants below name the
columns each comparison uses.

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

A new column is one :data:`SCHEMES` entry; one that needs parts no
existing :class:`Scheme` member has also needs that member and its
parts in ``Machine.__init__``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple, Union

from .config import MachineConfig, Scheme

__all__ = [
    "SchemeRef",
    "SchemeSpec",
    "SCHEMES",
    "COMPARISON_PAIR",
    "MOTIVATION_PAIR",
    "CRASH_MATRIX",
    "canonical_scheme_name",
    "get_scheme",
    "scheme_names",
    "secure_scheme_names",
    "spec_for_config",
]

#: Anything a scheme lookup resolves: a canonical name, a base
#: :class:`Scheme` member, or a :class:`SchemeSpec` itself.
SchemeRef = Union[str, Scheme, "SchemeSpec"]


@dataclass(frozen=True)
class SchemeSpec:
    """One comparison column, by value.

    ``configure`` projects the spec onto a base :class:`MachineConfig`;
    the machine's structure follows from ``scheme`` alone.
    """

    name: str                       # canonical key in SCHEMES
    scheme: Scheme                  # base enum (config identity, run labels)
    #: None inherits the base config's WPQ model; True/False pins it.
    model_wpq: Optional[bool] = None
    #: Anubis shadow-table recovery wiring (always pinned — identity).
    anubis_recovery: bool = False
    #: Opt the metadata cache into per-kind partitioning.
    partitioned_metadata_cache: bool = False

    def configure(self, base: Optional[MachineConfig] = None) -> MachineConfig:
        """Project this column onto ``base`` (default machine if None)."""
        config = (base or MachineConfig())._replace(
            scheme=self.scheme, anubis_recovery=self.anubis_recovery
        )
        if self.model_wpq is not None and config.model_wpq != self.model_wpq:
            config = config.with_wpq(self.model_wpq)
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


SCHEMES: Dict[str, SchemeSpec] = {
    spec.name: spec
    for spec in (
        # Figure 1(a)'s pre-DAX background: page cache, no encryption.
        SchemeSpec("conventional", Scheme.CONVENTIONAL),
        # Figure 3's reference: direct access, no encryption anywhere.
        SchemeSpec("ext4dax_plain", Scheme.EXT4DAX_PLAIN),
        # Figure 3's loser: software crypto through the page cache, DAX off.
        SchemeSpec("software_encryption", Scheme.SOFTWARE_ENCRYPTION),
        # Counter-mode memory encryption + BMT, no file layer.
        SchemeSpec("baseline_secure", Scheme.BASELINE_SECURE),
        # The contribution: baseline + hardware filesystem encryption.
        SchemeSpec("fsencr", Scheme.FSENCR),
        # FsEncr with the explicit Write Pending Queue persist path.
        SchemeSpec("fsencr+wpq", Scheme.FSENCR, model_wpq=True),
        # FsEncr with Anubis shadow-table recovery: runtime shadow writes
        # buy recovery proportional to the metadata cache, not the memory.
        SchemeSpec("fsencr+anubis", Scheme.FSENCR, anubis_recovery=True),
        # Metadata cache partitioned per kind: Figure 15's variant axis.
        SchemeSpec("fsencr+partitioned", Scheme.FSENCR, partitioned_metadata_cache=True),
    )
}

#: (baseline, contribution): the default pair of Figures 8-15.
COMPARISON_PAIR = ("baseline_secure", "fsencr")
#: (plain reference, software encryption): Figure 3's pair.
MOTIVATION_PAIR = ("ext4dax_plain", "software_encryption")
#: The crash-sweep matrix's scheme columns, in matrix order.
CRASH_MATRIX = ("fsencr", "baseline_secure", "fsencr+wpq", "fsencr+anubis")


def canonical_scheme_name(scheme) -> str:
    """The :data:`SCHEMES` key for a name, :class:`Scheme`, or spec.

    String names are the canonical currency (compare-cell scheme tuples,
    ``WorkloadComparison.runs`` keys, CLI arguments); enums map to their
    base column.
    """
    if isinstance(scheme, SchemeSpec):
        return scheme.name
    if isinstance(scheme, Scheme):
        return scheme.value
    key = str(scheme).strip().lower()
    if key not in SCHEMES:
        known = ", ".join(sorted(SCHEMES))
        raise ValueError(f"unknown scheme {scheme!r} (known: {known})")
    return key


def get_scheme(scheme) -> SchemeSpec:
    """Resolve a name/enum/spec to its :class:`SchemeSpec`."""
    return SCHEMES[canonical_scheme_name(scheme)]


def scheme_names() -> Tuple[str, ...]:
    """Every column name, sorted."""
    return tuple(sorted(SCHEMES))


def secure_scheme_names() -> Tuple[str, ...]:
    """Every column whose machine has a secure memory controller, sorted:
    the ones a crash sweep can run."""
    return tuple(name for name in scheme_names() if SCHEMES[name].scheme.has_secure_controller)


def spec_for_config(config: MachineConfig) -> SchemeSpec:
    """The spec that best describes ``config``.

    Exact variant match when one exists (so labels stay honest), the
    scheme's base spec otherwise.  A machine's structure only depends on
    its :class:`Scheme`; wiring knobs (WPQ, Anubis, partitioning) are
    read off the config itself.
    """
    candidates = [
        spec
        for spec in SCHEMES.values()
        if spec.scheme is config.scheme
        and spec.anubis_recovery == config.anubis_recovery
        and (not spec.partitioned_metadata_cache or config.metadata_cache.partitioned)
        and (spec.model_wpq is None or spec.model_wpq == config.model_wpq)
    ]
    if not candidates:
        return SCHEMES[config.scheme.value]

    def _specificity(spec: SchemeSpec):
        pins = (
            int(spec.anubis_recovery)
            + int(spec.partitioned_metadata_cache)
            + int(spec.model_wpq is not None)
        )
        return (pins, spec.name)

    return max(candidates, key=_specificity)
