"""Pluggable technology targets: the flow's cost-model seam.

A :class:`~repro.targets.base.TechTarget` answers the three
technology-specific questions of the flow -- feasibility (when a function
becomes one cell), cost (which candidate decomposition / mapped group /
network is cheaper) and emission -- behind one protocol, so the
decomposition stack (policies, emitter, executors, cache, CLI, server)
never hardcodes XC3000 CLBs again.  See ``docs/TARGETS.md``.

Registry
--------

- ``xc3000-clb`` -- the paper's cost model and the byte-identity
  reference (k = 5; :mod:`repro.targets.xc3000`);
- ``lut-<k>`` -- plain k-input LUT cost for any k >= 3, with XC4000 CLB
  pricing at k = 4 (:mod:`repro.targets.lutk`);
- ``auto`` -- resolver pseudo-target: ``xc3000-clb`` when k is 5 (or
  unset), ``lut-<k>`` otherwise, reproducing the historical behaviour of
  a bare ``--k``.

:func:`make_target` builds an instance from a name;
:func:`resolve_target` additionally reconciles the name with an optional
explicit ``k`` (the CLI's ``--target`` x ``--k`` matrix).  Unknown names
raise a one-line :class:`ValueError` (exit code 2 from the CLI).
"""

from __future__ import annotations

import re

from repro.targets.base import TargetCost, TechTarget, spec_group_cost
from repro.targets.lutk import LutTarget
from repro.targets.xc3000 import Xc3000Target

#: The resolver pseudo-target accepted by ``FlowConfig.target``.
AUTO_TARGET = "auto"

#: Default k when neither ``--k`` nor a concrete ``--target`` pins one.
DEFAULT_K = 5

#: Concrete target names advertised in help text (``lut-<k>`` admits any
#: k >= 3; these are the ROADMAP item-5 sweep points).
TARGET_NAMES = ("xc3000-clb", "lut-4", "lut-5", "lut-6")

_LUT_K = re.compile(r"^lut-(\d+)$")


def make_target(name: str) -> TechTarget:
    """Build the target registered under ``name``.

    ``lut-<k>`` is parsed generically (any k >= 3); everything else must
    be a registered concrete name.  Raises a one-line :class:`ValueError`
    for unknown names -- ``auto`` is deliberately rejected here, it only
    exists at the resolver layer (:func:`resolve_target`).
    """
    if name == "xc3000-clb":
        return Xc3000Target()
    match = _LUT_K.match(name or "")
    if match:
        k = int(match.group(1))
        if k < 3:
            raise ValueError(
                f"target {name!r} is infeasible: lut-k needs k >= 3 "
                "(k < 3 cannot host the Shannon fallback mux)"
            )
        return LutTarget(k)
    raise ValueError(
        f"unknown target {name!r} (have: {', '.join(TARGET_NAMES)}, "
        "or lut-<k> for any k >= 3)"
    )


def resolve_target(name: str | None, k: int | None) -> tuple[str, int]:
    """Reconcile a target name with an optional explicit ``k``.

    Returns the concrete ``(target_name, k)`` pair:

    - ``auto`` (or None) resolves to ``xc3000-clb`` when k is 5 or unset,
      ``lut-<k>`` otherwise -- the historical meaning of a bare ``--k``;
    - a concrete name pins k to the target's cell width; an explicit
      conflicting ``k`` is a one-line :class:`ValueError` rather than a
      silently ignored knob.
    """
    if name is None or name == AUTO_TARGET:
        k = DEFAULT_K if k is None else k
        return ("xc3000-clb" if k == DEFAULT_K else f"lut-{k}", k)
    target = make_target(name)
    if k is not None and k != target.k:
        raise ValueError(
            f"target {name!r} implies k = {target.k}, "
            f"which contradicts the requested k = {k}"
        )
    return (target.name, target.k)


def report_section(
    target_name: str,
    k: int,
    race_winners: dict[str, int] | None = None,
    cost: TargetCost | None = None,
) -> dict:
    """The ``target`` section of a ``repro-run-report/5`` document.

    Flat scalars describing the run's technology target -- name, cell
    width, the priced network when one was computed -- plus the
    ``race_winners`` object mapping each racing policy to the number of
    groups it won.
    """
    section: dict = {"name": target_name, "k": k}
    if cost is not None:
        section["luts"] = cost.luts
        section["units"] = cost.units
        section["unit_name"] = cost.unit_name
    if race_winners:
        section["race_winners"] = dict(race_winners)
    return section


__all__ = [
    "AUTO_TARGET",
    "DEFAULT_K",
    "LutTarget",
    "TARGET_NAMES",
    "TargetCost",
    "TechTarget",
    "Xc3000Target",
    "make_target",
    "report_section",
    "resolve_target",
    "spec_group_cost",
]
