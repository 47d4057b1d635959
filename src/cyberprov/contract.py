"""Bonus-Malus contract mechanics, mitigation menu, and yearly payments.

A contract state is a pair (level, status). Levels form an ordered set of
integers where lower means a larger experience discount. The status is
``"no"`` before the contract is first signed, ``"on"`` while it is active,
and ``"off_y"`` after a withdrawal, where the counter ``y`` advances only
through the configured inactive-transition table.

Claim transitions are piecewise in the claim amount: a dedicated level for
a zero claim (no claim at all), then bands ``(c_k, c_{k+1}]`` each mapping
to a level. Transitions must be nondecreasing in the claim amount, and
adjacent bands with the same level merge, so the positive claims that
reach a level form one left-open, right-closed band: the ``(lo, hi]``
pairs of :mod:`cyberprov.intervals` that the solver cuts into claim sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "STATUS_NO",
    "STATUS_ON",
    "off_status",
    "contract_statuses",
    "MitigationMenu",
    "BonusMalusRule",
    "ContractSchedules",
    "ContractSpec",
]

STATUS_NO = "no"
STATUS_ON = "on"


def off_status(counter: int) -> str:
    return f"off_{counter}"


def contract_statuses(horizon: int) -> tuple[str, ...]:
    """All contract statuses for a given horizon: no, on, off_1..off_T."""
    return (STATUS_NO, STATUS_ON) + tuple(off_status(y) for y in range(1, horizon + 1))


@dataclass(frozen=True)
class MitigationMenu:
    """Mutually exclusive self-mitigation measures, indexed 0..D.

    Measure 0 is "do nothing": zero investment, zero effect. Measure d
    costs ``betas[d]`` per year and clips each event loss by ``gammas[d]``.
    """

    betas: tuple[float, ...]
    gammas: tuple[float, ...]

    def __post_init__(self):
        if len(self.betas) != len(self.gammas) or not self.betas:
            raise DomainError("betas and gammas must be equal-length, nonempty")
        if self.betas[0] != 0.0 or self.gammas[0] != 0.0:
            raise DomainError("measure 0 must have zero cost and zero effect")
        if any(b < 0 for b in self.betas) or any(g < 0 for g in self.gammas):
            raise DomainError("investments and reductions must be nonnegative")

    @property
    def measures(self) -> range:
        return range(len(self.betas))

    def beta(self, d: int) -> float:
        return self.betas[d]

    def gamma(self, d: int) -> float:
        return self.gammas[d]


@dataclass(frozen=True)
class BonusMalusRule:
    """Level-transition rules for claims and for inactive years.

    Attributes:
        levels: Ordered levels, strictly increasing, containing 0.
        statuses: All contract statuses (depends on the horizon).
        zero_claim: Level reached from each level after a claim-free year
            (equivalently a claim of exactly zero).
        pieces: Per level, bands ``(threshold, level)``; the first
            threshold must be 0 and band k covers claims in
            ``(thr_k, thr_{k+1}]``, the last extending to infinity.
            Adjacent bands with the same level are merged, so the levels
            strictly increase.
        inactive: Transition applied when no premium is paid, keyed by
            (level, status); the not-yet-signed status is a fixed point
            and is filled in automatically.
    """

    levels: tuple[int, ...]
    statuses: tuple[str, ...]
    zero_claim: dict
    pieces: dict
    inactive: dict

    def __post_init__(self):
        levels = tuple(int(b) for b in self.levels)
        if list(levels) != sorted(set(levels)):
            raise DomainError("levels must be strictly increasing")
        if 0 not in levels:
            raise DomainError("levels must contain the initial level 0")
        object.__setattr__(self, "levels", levels)

        pieces = {}
        for b in levels:
            if b not in self.zero_claim or b not in self.pieces:
                raise DomainError(f"claim transition missing for level {b}")
            raw = tuple((float(t), int(l)) for t, l in self.pieces[b])
            if not raw or raw[0][0] != 0.0:
                raise DomainError(f"level {b}: first claim band must start at 0")
            thresholds = [t for t, _ in raw]
            if any(t2 <= t1 for t1, t2 in zip(thresholds, thresholds[1:])):
                raise DomainError(f"level {b}: band thresholds must increase")
            lvls = [l for _, l in raw]
            if any(l2 < l1 for l1, l2 in zip(lvls, lvls[1:])):
                raise DomainError(f"level {b}: claim transition must be nondecreasing")
            if self.zero_claim[b] > lvls[0]:
                raise DomainError(f"level {b}: zero-claim level exceeds first band")
            if self.zero_claim[b] not in levels or any(l not in levels for l in lvls):
                raise DomainError(f"level {b}: transition targets unknown level")
            # A band with its predecessor's level merges into it.
            pieces[b] = tuple(p for k, p in enumerate(raw) if k == 0 or p[1] != lvls[k - 1])
        object.__setattr__(self, "pieces", pieces)

        inactive = {}
        for b in levels:
            inactive[(b, STATUS_NO)] = (b, STATUS_NO)
            for status in self.statuses:
                if status == STATUS_NO:
                    if (b, status) in self.inactive and self.inactive[
                        (b, status)
                    ] != (b, status):
                        raise DomainError(
                            f"inactive transition must fix ({b}, no)"
                        )
                    continue
                try:
                    b2, s2 = self.inactive[(b, status)]
                except KeyError:
                    raise DomainError(
                        f"inactive transition missing for ({b}, {status})"
                    ) from None
                if b2 not in levels or s2 not in self.statuses or s2 == STATUS_ON:
                    raise DomainError(
                        f"inactive transition ({b}, {status}) -> ({b2}, {s2}) invalid"
                    )
                inactive[(b, status)] = (int(b2), s2)
        object.__setattr__(self, "inactive", inactive)


@dataclass(frozen=True)
class ContractSchedules:
    """Dense per-level, per-year premium/deductible/cap and fee schedules.

    Arrays are indexed ``[level_index, year - 1]``; fee schedules are
    per-year vectors. Premiums (per unit of base premium) must be
    nondecreasing in the level for every year (higher level, higher surcharge).
    """

    levels: tuple[int, ...]
    horizon: int
    premium: np.ndarray  # (n_levels, horizon) per unit of base premium
    deductible: np.ndarray  # (n_levels, horizon)
    max_comp: np.ndarray  # (n_levels, horizon)
    fee_in: np.ndarray  # (horizon,) sign-on fee
    fee_out: np.ndarray  # (horizon,) withdrawal penalty
    fee_re: float  # re-activation penalty
    discount_factor: float  # per-year factor exp(-r)

    def __post_init__(self):
        shape = (len(self.levels), self.horizon)
        for name in ("premium", "deductible", "max_comp"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if arr.shape != shape:
                raise DomainError(f"{name} must have shape {shape}, got {arr.shape}")
            if np.any(arr < 0):
                raise DomainError(f"{name} entries must be nonnegative")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("fee_in", "fee_out"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if arr.shape != (self.horizon,):
                raise DomainError(f"{name} must have shape ({self.horizon},)")
            if np.any(arr < 0):
                raise DomainError(f"{name} entries must be nonnegative")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.fee_re < 0:
            raise DomainError("fee_re must be nonnegative")
        if not 0 < self.discount_factor <= 1:
            raise DomainError(
                f"discount factor must lie in (0, 1], got {self.discount_factor}"
            )
        if np.any(np.diff(self.premium, axis=0) < 0):
            raise DomainError("premium must be nondecreasing in the level")

    def level_index(self, b: int) -> int:
        return self.levels.index(b)


@dataclass(frozen=True)
class ContractSpec:
    """Complete contract: transition rule, schedules, and mitigation menu.

    The premium due is ``base_premium * schedules.premium[level_index, year - 1]``.
    """

    rule: BonusMalusRule
    schedules: ContractSchedules
    menu: MitigationMenu
    base_premium: float = 1.0

    def __post_init__(self):
        if not self.base_premium >= 0:
            raise DomainError(f"base premium must be >= 0, got {self.base_premium}")
        if self.rule.levels != self.schedules.levels:
            raise DomainError("rule and schedules disagree on the level set")
        if len(self.rule.statuses) != self.schedules.horizon + 2:
            raise DomainError("rule statuses do not match the horizon")

    @property
    def horizon(self) -> int:
        return self.schedules.horizon

    def payments(self, year, premium, status, iota):
        """Premium and fees paid to the insurer in a year, vectorized.

        A covered year pays the premium, plus the sign-on fee from the
        unsigned status or the re-activation fee from a withdrawn one; an
        uncovered year pays the withdrawal penalty if the contract was
        active. ``year`` (1-based), ``premium``, ``status`` (index into
        ``rule.statuses``) and ``iota`` (cover decision) broadcast together.
        """
        sched = self.schedules
        is_no = status == self.rule.statuses.index(STATUS_NO)
        is_on = status == self.rule.statuses.index(STATUS_ON)
        is_off = ~(is_no | is_on)
        t = np.asarray(year) - 1
        covered = premium + sched.fee_in[t] * is_no + sched.fee_re * is_off
        return np.where(iota, covered, sched.fee_out[t] * is_on)
