"""Per-block CPU bitmasks: which caches must see a bus operation.

The engine owns two ``block -> cpu bitmask`` dicts and hands them to
every CPU's cache, victim buffer and MSHRs, which keep them current:

* the *sharer map* has bit ``c`` set while CPU ``c``'s main array holds
  a tag for the block (valid or invalid) or its victim buffer holds an
  entry for it;
* the *in-flight map* has bit ``c`` set while CPU ``c`` has a fill for
  the block outstanding.

A CPU with neither bit set has nothing a snoop or a remote-write note
could change, so the engine visits only the CPUs these maps name.  The
runtime sanitizer (:mod:`repro.audit`) recomputes both maps from the
caches and MSHRs and reports any difference.
"""

from __future__ import annotations

__all__ = ["track", "untrack"]


def track(bitmap: dict[int, int], block: int, bit: int) -> None:
    """Set ``bit`` in ``block``'s mask."""
    bitmap[block] = bitmap.get(block, 0) | bit


def untrack(bitmap: dict[int, int], block: int, bit: int) -> None:
    """Clear ``bit`` in ``block``'s mask, dropping masks that reach 0."""
    mask = bitmap.get(block, 0) & ~bit
    if mask:
        bitmap[block] = mask
    else:
        bitmap.pop(block, None)
