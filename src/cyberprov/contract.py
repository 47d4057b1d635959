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
pairs of :mod:`cyberprov.intervals`. The rule compiles these moves once
and owns, for the solver and the Monte Carlo replay, the yearly dynamics
on them: the claim sets at given value gaps, the one claim decision on
them, and one year of the chain law.

The horizon fixes the statuses, ``no``, ``on``, ``off_1``..``off_T`` in
that order, so the rule derives them, and with them its start state:
level 0, not yet signed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
# Their indices in ``contract_statuses(horizon)``.
NO_INDEX = 0
ON_INDEX = 1


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
        if not all(x >= 0 for x in (*self.betas, *self.gammas)):
            raise DomainError("investments and reductions must be nonnegative")

    @property
    def measures(self) -> range:
        return range(len(self.betas))


@dataclass(frozen=True)
class BonusMalusRule:
    """Level-transition rules for claims and for inactive years.

    Attributes:
        levels: Ordered levels, strictly increasing, containing 0.
        horizon: Contract length in years; the statuses are
            ``contract_statuses(horizon)``.
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

    The compiled moves, by level index ``ib``: ``low[ib]`` is the
    zero-claim level; ``reach[ib]`` lists ``(target, lo, hi)`` for every
    level a positive claim reaches, in level order, the claims in ``(lo,
    hi]`` leading there; ``bm0[ib, status_index]`` is the flat state
    (``level_index * len(statuses) + status_index``) after a year without
    cover; ``start`` is the flat state (0, ``"no"``).
    """

    levels: tuple[int, ...]
    horizon: int
    zero_claim: dict
    pieces: dict
    inactive: dict
    statuses: tuple = field(init=False, compare=False, repr=False)
    start: int = field(init=False, compare=False, repr=False)
    low: tuple = field(init=False, compare=False, repr=False)
    reach: tuple = field(init=False, compare=False, repr=False)
    bm0: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        levels = tuple(int(b) for b in self.levels)
        if list(levels) != sorted(set(levels)):
            raise DomainError("levels must be strictly increasing")
        if 0 not in levels:
            raise DomainError("levels must contain the initial level 0")
        object.__setattr__(self, "levels", levels)
        index = {b: k for k, b in enumerate(levels)}

        pieces, reach = {}, []
        for b in levels:
            if b not in self.zero_claim or b not in self.pieces:
                raise DomainError(f"claim transition missing for level {b}")
            pieces[b] = merged = self.claim_bands(levels, b, self.pieces[b])
            self.check_zero_claim(levels, b, self.zero_claim[b], merged)
            his = [thr for thr, _ in merged[1:]] + [np.inf]
            reach.append(tuple((index[b2], lo, hi) for (lo, b2), hi in zip(merged, his)))
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "reach", tuple(reach))
        object.__setattr__(self, "low", tuple(index[self.zero_claim[b]] for b in levels))

        statuses = contract_statuses(self.horizon)
        object.__setattr__(self, "statuses", statuses)
        object.__setattr__(self, "start", index[0] * len(statuses) + NO_INDEX)
        inactive = {}
        bm0 = np.empty((len(levels), len(statuses)), dtype=int)
        for ib, b in enumerate(levels):
            for ii, status in enumerate(statuses):
                fixed = (b, status) if status == STATUS_NO else None  # may be left out
                if (move := self.inactive.get((b, status), fixed)) is None:
                    raise DomainError(f"inactive transition missing for ({b}, {status})")
                inactive[(b, status)] = self.inactive_move(levels, statuses, b, status, move)
                b2, s2 = inactive[(b, status)]
                bm0[ib, ii] = index[b2] * len(statuses) + statuses.index(s2)
        bm0.setflags(write=False)
        object.__setattr__(self, "inactive", inactive)
        object.__setattr__(self, "bm0", bm0)

    # Per-entry checks; the config reader runs each under its field path.
    @staticmethod
    def claim_bands(levels: tuple, b: int, pieces) -> tuple:
        """Level ``b``'s checked bands ``(threshold, level)``; a band with its
        predecessor's level merges into it, so the targets strictly increase."""
        raw = tuple((float(t), int(l)) for t, l in pieces)
        thresholds, lvls = [t for t, _ in raw], [l for _, l in raw]
        if not raw or raw[0][0] != 0.0:
            raise DomainError(f"level {b}: first claim band must start at 0")
        if any(t2 <= t1 for t1, t2 in zip(thresholds, thresholds[1:])):
            raise DomainError(f"level {b}: band thresholds must increase")
        if any(l2 < l1 for l1, l2 in zip(lvls, lvls[1:])):
            raise DomainError(f"level {b}: claim transition must be nondecreasing")
        if any(l not in levels for l in lvls):
            raise DomainError(f"level {b}: transition targets unknown level")
        return tuple(p for k, p in enumerate(raw) if k == 0 or p[1] != lvls[k - 1])

    @staticmethod
    def check_zero_claim(levels: tuple, b: int, zero: int, bands: tuple = ()) -> None:
        """Check level ``b``'s zero-claim level, against its bands if given."""
        if zero not in levels:
            raise DomainError(f"level {b}: transition targets unknown level")
        if bands and zero > bands[0][1]:
            raise DomainError(f"level {b}: zero-claim level exceeds first band")

    @staticmethod
    def inactive_move(levels: tuple, statuses: tuple, b: int, status: str, move) -> tuple:
        """The checked move of state ``(b, status)`` in a year without cover."""
        b2, s2 = move
        if status == STATUS_NO and (b2, s2) != (b, status):
            raise DomainError(f"inactive transition must fix ({b}, no)")
        if b2 not in levels or s2 not in statuses or s2 == STATUS_ON:
            raise DomainError(f"inactive transition ({b}, {status}) -> ({b2}, {s2}) invalid")
        return int(b2), s2

    def claim_sets(self, gaps: np.ndarray) -> list:
        """Per level index ``ib``, the nonempty claim sets ``(jb, cut, hi)``
        at the value gaps ``gaps`` (nL, nL): a compensation in ``(cut, hi]``,
        with ``cut = max(gaps[ib, jb], lo)``, is claimed and moves to ``jb``."""
        return [
            [(jb, cut, hi) for jb, lo, hi in reach if (cut := max(gaps[ib, jb], lo)) < hi]
            for ib, reach in enumerate(self.reach)
        ]

    def claim_targets(self, comp, level, gaps: np.ndarray) -> np.ndarray:
        """The level index a claim of ``comp`` from level index ``level`` leads
        to, or -1 where ``comp`` is in none of that level's ``claim_sets(gaps)``
        (as at level -1, no cover); ``comp`` and ``level`` broadcast."""
        target = np.full(np.broadcast(comp, level).shape, -1)
        for ib, sets in enumerate(self.claim_sets(gaps)):
            for jb, cut, hi in sets:
                np.copyto(target, jb, where=(level == ib) & (cut < comp) & (comp <= hi))
        return target

    def propagate(self, occ: np.ndarray, year) -> np.ndarray:
        """One year of the chain law for a batch of occupancies ``(B, S)``.

        ``year`` holds the year's decisions ``(P, nL, nS)`` and claim
        probabilities ``(P, nL, D+1, nL)``, with ``P`` equal to ``B`` or 1.
        A covered state moves by the claim probabilities of its measure,
        the zero-claim level taking the rest; an uncovered one follows the
        inactive table. Only the states that carry mass are moved.
        """
        iota, d_hat, claim_prob = year
        n_status = len(self.statuses)
        nxt = np.zeros_like(occ)
        for s in np.flatnonzero(occ.any(axis=0)):
            ib, ii = divmod(s, n_status)
            mass = occ[:, s]
            active = iota[:, ib, ii] == 1
            probs = claim_prob[np.arange(len(active)), ib, d_hat[:, ib, ii]]  # (P, nL)
            nxt[:, self.bm0[ib, ii]] += np.where(active, 0.0, mass)
            stay = 1.0
            for jb, _, _ in self.reach[ib]:
                if jb != self.low[ib]:
                    moved = np.where(active, probs[:, jb] * mass, 0.0)
                    nxt[:, jb * n_status + ON_INDEX] += moved
                    stay -= probs[:, jb]
            low = self.low[ib] * n_status + ON_INDEX
            nxt[:, low] += np.where(active, stay * mass, 0.0)
        return nxt


@dataclass(frozen=True)
class ContractSchedules:
    """Dense per-level, per-year premium/deductible/cap and fee schedules.

    The 2-D ``premium`` fixes the shape ``(n_levels, T)``, which
    ``deductible`` and ``max_comp`` share; all three are indexed
    ``[level_index, year - 1]``. The fee schedules are per-year vectors
    of length ``T``. The contract's rule owns the levels and the horizon.
    Premiums (per unit of base premium) must be nondecreasing in the level
    for every year (higher level, higher surcharge).
    """

    premium: np.ndarray  # (n_levels, T) per unit of base premium
    deductible: np.ndarray  # (n_levels, T)
    max_comp: np.ndarray  # (n_levels, T)
    fee_in: np.ndarray  # (T,) sign-on fee
    fee_out: np.ndarray  # (T,) withdrawal penalty
    fee_re: float  # re-activation penalty
    discount_factor: float  # per-year factor exp(-r)

    def __post_init__(self):
        shape = np.shape(self.premium)
        if len(shape) != 2:
            raise DomainError(f"premium must have shape (n_levels, T), got {shape}")
        per_year = shape[1:]
        shapes = dict(premium=shape, deductible=shape, max_comp=shape,
                      fee_in=per_year, fee_out=per_year)
        for name, want in shapes.items():
            arr = np.ascontiguousarray(getattr(self, name), dtype=float)
            if arr.shape != want:
                raise DomainError(f"{name} must have shape {want}, got {arr.shape}")
            if not (arr >= 0).all():
                raise DomainError(f"{name} entries must be nonnegative")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not self.fee_re >= 0:
            raise DomainError("fee_re must be nonnegative")
        if not 0 < self.discount_factor <= 1:
            raise DomainError(
                f"discount factor must lie in (0, 1], got {self.discount_factor}"
            )
        if np.any(np.diff(self.premium, axis=0) < 0):
            raise DomainError("premium must be nondecreasing in the level")


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
        shape, got = (len(self.rule.levels), self.rule.horizon), self.schedules.premium.shape
        if got != shape:
            raise DomainError(
                f"schedules have shape {got}; the rule's levels and horizon need {shape}"
            )

    @property
    def horizon(self) -> int:
        return self.rule.horizon

    def payments(self, year, premium, status, iota):
        """Premium and fees paid to the insurer in a year, vectorized.

        A covered year pays the premium, plus the sign-on fee from the
        unsigned status or the re-activation fee from a withdrawn one; an
        uncovered year pays the withdrawal penalty if the contract was
        active. ``year`` (1-based), ``premium``, ``status`` (index into
        ``rule.statuses``) and ``iota`` (cover decision) broadcast together.
        """
        sched = self.schedules
        is_no = status == NO_INDEX
        is_on = status == ON_INDEX
        is_off = ~(is_no | is_on)
        t = np.asarray(year) - 1
        covered = premium + sched.fee_in[t] * is_no + sched.fee_re * is_off
        return np.where(iota, covered, sched.fee_out[t] * is_on)
