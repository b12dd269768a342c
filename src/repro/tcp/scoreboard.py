"""Array-backed SACK scoreboard (the perf-round-2 representation).

The sender's loss-recovery state used to live in four per-seq containers
(an :class:`~repro.tcp.intervals.IntervalSet` of SACKed ranges plus
three Python sets).  Every ACK paid set allocations, hashing and
membership probes for what is, structurally, a dense window of small
integers next to the cumulative ACK point.  This module replaces them
with one flat ``bytearray`` of per-sequence flag bits indexed relative
to ``base`` (== the sender's cumulative ACK), plus maintained counts —
a struct-of-arrays layout where a SACK block update is a short run of
byte ORs and the cumulative-ACK advance is one ``del flags[:n]``.

Semantics are pinned to the old containers bit-for-bit:

* ``SACKED`` mirrors the IntervalSet: marking a range SACKed also drops
  those sequences from LOST/RTX, exactly like the old in-place
  ``difference_update`` calls.
* ``LOST``/``RTX`` mirror the ``_lost``/``_rtx`` recovery-episode sets:
  cleared together on episode boundaries, retransmitting the minimum
  lost hole first.
* ``RETX`` mirrors ``_retx_pending`` (Karn's algorithm): set on every
  retransmission, consumed only by the cumulative-ACK advance, and —
  unlike LOST/RTX — *not* cleared on episode boundaries.

The original container-based implementation lives on, behind the same
API, as the oracle of the hypothesis property test
(``tests/test_properties.py``), which drives both through random
ACK/SACK/retransmit sequences and asserts state equality — the
executable form of the "observably identical" claim.
"""

from __future__ import annotations

from typing import Set

__all__ = ["SackScoreboard", "SACKED", "LOST", "RTX", "RETX"]

#: Per-sequence flag bits.
SACKED = 0x01  # receiver holds it (reported in a SACK block)
LOST = 0x02    # marked lost this recovery episode, awaiting retransmit
RTX = 0x04     # retransmitted this recovery episode
RETX = 0x08    # retransmitted, not yet cumulatively ACKed (Karn)

_NO_MIN = 1 << 62

#: translate() table clearing the episode bits (LOST|RTX) from every
#: byte in one C-level pass — the old ``_lost.clear(); _rtx.clear()``.
_CLEAR_EPISODE = bytes(b & ~(LOST | RTX) for b in range(256))


class SackScoreboard:
    """Flat-array SACK/loss/retransmit scoreboard for one sender.

    All sequence numbers are absolute; ``base`` tracks the cumulative
    ACK and every flag lives at ``flags[seq - base]``.  Counts are
    maintained incrementally so the SACK pipe estimate is O(1).
    """

    __slots__ = (
        "base", "flags", "n_sacked", "n_lost", "n_rtx", "n_retx",
        "_lost_min", "_scan_lo",
    )

    def __init__(self) -> None:
        self.base = 0
        self.flags = bytearray()
        self.n_sacked = 0   # == len(old _sacked)
        self.n_lost = 0     # == len(old _lost)
        self.n_rtx = 0      # == len(old _rtx)
        self.n_retx = 0     # == len(old _retx_pending)
        self._lost_min = _NO_MIN  # lower bound on the smallest LOST seq
        self._scan_lo = 0         # detect_losses() resume cursor

    # ------------------------------------------------------------------
    def _ensure(self, end: int) -> None:
        """Grow the flag array to cover sequences < ``end``."""
        need = end - self.base - len(self.flags)
        if need > 0:
            self.flags.extend(bytes(need))

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def is_sacked(self, seq: int) -> bool:
        i = seq - self.base
        flags = self.flags
        return 0 <= i < len(flags) and flags[i] & SACKED != 0

    def is_rtx(self, seq: int) -> bool:
        i = seq - self.base
        flags = self.flags
        return 0 <= i < len(flags) and flags[i] & RTX != 0

    def is_retx(self, seq: int) -> bool:
        i = seq - self.base
        flags = self.flags
        return 0 <= i < len(flags) and flags[i] & RETX != 0

    # ------------------------------------------------------------------
    # SACK updates
    # ------------------------------------------------------------------
    def mark_sacked(self, start: int, end: int) -> None:
        """SACK ``[start, end)``; clears LOST/RTX on the covered run
        (the old difference_update)."""
        base = self.base
        if start < base:
            start = base
        if end <= start:
            return
        self._ensure(end)
        flags = self.flags
        newly = dropped_lost = dropped_rtx = 0
        for i in range(start - base, end - base):
            b = flags[i]
            if b & SACKED:
                continue
            if b & LOST:
                dropped_lost += 1
            if b & RTX:
                dropped_rtx += 1
            flags[i] = b & ~(LOST | RTX) | SACKED
            newly += 1
        if newly:
            self.n_sacked += newly
            self.n_lost -= dropped_lost
            self.n_rtx -= dropped_rtx

    # ------------------------------------------------------------------
    # Episode (LOST/RTX) updates
    # ------------------------------------------------------------------
    def mark_lost(self, seq: int) -> None:
        self._ensure(seq + 1)
        i = seq - self.base
        b = self.flags[i]
        if not b & LOST:
            self.flags[i] = b | LOST
            self.n_lost += 1
            if seq < self._lost_min:
                self._lost_min = seq

    def mark_rtx(self, seq: int) -> None:
        self._ensure(seq + 1)
        i = seq - self.base
        b = self.flags[i]
        if not b & RTX:
            self.flags[i] = b | RTX
            self.n_rtx += 1

    def pop_min_lost(self) -> int:
        """Take the smallest LOST sequence and move it to RTX — the
        recovery loop's ``min(_lost); _lost.discard; _rtx.add``.
        Only valid while ``n_lost > 0``."""
        base = self.base
        flags = self.flags
        i = self._lost_min - base
        if i < 0:
            i = 0
        while not flags[i] & LOST:
            i += 1
        flags[i] = flags[i] & ~LOST | RTX
        self.n_lost -= 1
        self.n_rtx += 1
        seq = base + i
        self._lost_min = seq + 1
        return seq

    def clear_episode(self) -> None:
        """Drop all LOST/RTX marks (recovery entry/exit and RTO); SACKED
        and RETX survive, exactly like the old per-set ``clear()``s."""
        if self.n_lost or self.n_rtx:
            self.flags[:] = self.flags.translate(_CLEAR_EPISODE)
            self.n_lost = 0
            self.n_rtx = 0
        self._lost_min = _NO_MIN
        self._scan_lo = 0

    # ------------------------------------------------------------------
    # Karn's algorithm (RETX)
    # ------------------------------------------------------------------
    def mark_retx(self, seq: int) -> None:
        self._ensure(seq + 1)
        i = seq - self.base
        b = self.flags[i]
        if not b & RETX:
            self.flags[i] = b | RETX
            self.n_retx += 1

    def retx_below(self, ackno: int) -> bool:
        """Any retransmit-pending sequence < ``ackno``?  (The Karn
        ambiguity test; the pending marks themselves are consumed by
        :meth:`advance`.)"""
        if not self.n_retx:
            return False
        n = ackno - self.base
        flags = self.flags
        if n > len(flags):
            n = len(flags)
        for i in range(n):
            if flags[i] & RETX:
                return True
        return False

    # ------------------------------------------------------------------
    # Cumulative-ACK advance
    # ------------------------------------------------------------------
    def advance(self, ackno: int) -> None:
        """Drop everything below ``ackno`` (the old ``discard_below``
        plus the three per-set prunes) and rebase the array."""
        n = ackno - self.base
        if n <= 0:
            return
        flags = self.flags
        if n >= len(flags):
            if self.n_sacked or self.n_lost or self.n_rtx or self.n_retx:
                self.n_sacked = self.n_lost = self.n_rtx = self.n_retx = 0
            del flags[:]
        else:
            s = l = r = p = 0
            for i in range(n):
                b = flags[i]
                if b:
                    if b & SACKED:
                        s += 1
                    if b & LOST:
                        l += 1
                    if b & RTX:
                        r += 1
                    if b & RETX:
                        p += 1
            if s or l or r or p:
                self.n_sacked -= s
                self.n_lost -= l
                self.n_rtx -= r
                self.n_retx -= p
            del flags[:n]
        self.base = ackno
        if self._lost_min < ackno:
            self._lost_min = ackno
        if self._scan_lo < ackno:
            self._scan_lo = ackno

    # ------------------------------------------------------------------
    # RFC 6675 IsLost
    # ------------------------------------------------------------------
    def detect_losses(self, dup_thresh: int) -> None:
        """Mark every unSACKed, unretransmitted hole below the
        ``dup_thresh``-th highest SACKed sequence as LOST.

        Sequences below the previous cutoff are already settled — each
        is SACKED, RTX or LOST, and stays in that union until the ACK
        point passes it — so the scan resumes at the saved cursor and
        each sequence is visited once per recovery episode.
        """
        if not self.n_sacked:
            return
        flags = self.flags
        base = self.base
        need = dup_thresh
        cutoff = 0
        for i in range(len(flags) - 1, -1, -1):
            if flags[i] & SACKED:
                need -= 1
                if not need:
                    cutoff = i
                    break
        if need:
            return  # fewer than dup_thresh sequences SACKed
        lo = self._scan_lo - base
        if lo < 0:
            lo = 0
        if lo < cutoff:
            lost_min = self._lost_min
            n_new = 0
            for i in range(lo, cutoff):
                if not flags[i] & (SACKED | LOST | RTX):
                    flags[i] |= LOST
                    n_new += 1
                    if base + i < lost_min:
                        lost_min = base + i
            if n_new:
                self.n_lost += n_new
                self._lost_min = lost_min
            self._scan_lo = base + cutoff

    # ------------------------------------------------------------------
    # Debug / test views (not used on the hot path)
    # ------------------------------------------------------------------
    def _seqs_with(self, bit: int) -> Set[int]:
        base = self.base
        return {base + i for i, b in enumerate(self.flags) if b & bit}

    def sacked_set(self) -> Set[int]:
        return self._seqs_with(SACKED)

    def lost_set(self) -> Set[int]:
        return self._seqs_with(LOST)

    def rtx_set(self) -> Set[int]:
        return self._seqs_with(RTX)

    def retx_set(self) -> Set[int]:
        return self._seqs_with(RETX)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SackScoreboard(base={self.base}, sacked={self.n_sacked}, "
            f"lost={self.n_lost}, rtx={self.n_rtx}, retx={self.n_retx})"
        )

