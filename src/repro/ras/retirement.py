"""Copy plan for predictively retiring one on-package frame.

Retiring slot ``r`` must preserve every page's single live copy while
removing the frame from the pairing invariant for good:

* identity (``pair[r] == r``): page ``r``'s data sits in the dying
  frame; one copy moves it to the reserved spare machine page.
* transposition (``pair[r] == q``): the frame holds migrated page
  ``q``'s data, and page ``r``'s data sits at machine page ``q``. Page
  ``r`` moves to the spare *first* (its source ``mach q`` is about to
  be overwritten), then page ``q`` moves home from the dying frame.

Both the runtime engine (:meth:`repro.migration.engine.MigrationEngine.
retire_frame`) and the protocol model checker's ``CE_BURST`` scenarios
build their moves here, so the checker verifies exactly the copies the
engine performs — the same single-source discipline as
:mod:`repro.migration.recovery`.
"""

from __future__ import annotations

from ..errors import MigrationError
from ..migration.algorithms import CopyStep
from ..migration.table import EMPTY, TranslationTable


def retirement_moves(
    table: TranslationTable, slot: int, spare: int, page_bytes: int
) -> list[CopyStep]:
    """The ordered copies that empty ``slot`` into ``spare`` and (for a
    transposition) send its occupant home. Validates the same
    preconditions :meth:`TranslationTable.retire_slot` enforces, so a
    caller failing here has mutated nothing."""
    if table.retired[slot]:
        raise MigrationError(f"slot {slot} is already retired")
    if spare not in table.reserved_pages:
        raise MigrationError(f"page {spare} is not a reserved spare page")
    if spare in table.remap.values():
        raise MigrationError(f"spare page {spare} already in use")
    if bool(table.p_bit[slot]) or bool(table.f_bit[slot]):
        raise MigrationError(f"slot {slot} is mid-swap")
    occupant = table.page_in_slot(slot)
    if occupant == EMPTY:
        raise MigrationError("cannot retire the empty slot")
    # identity-home test: occupant == slot means the slot still holds its
    # natively-homed page, so retirement needs only the one spare copy
    if occupant == slot:
        return [
            CopyStep(
                f"retire frame {slot}: page {slot} -> spare mach {spare}",
                page_bytes,
                cross_boundary=True,
                src=("slot", slot),
                dst=("mach", spare),
            )
        ]
    return [
        # page `slot`'s data first: its source is the occupant's home
        # machine page, which the second copy overwrites
        CopyStep(
            f"retire frame {slot}: page {slot} mach {occupant} -> "
            f"spare mach {spare}",
            page_bytes,
            cross_boundary=True,
            src=("mach", occupant),
            dst=("mach", spare),
        ),
        CopyStep(
            f"retire frame {slot}: occupant page {occupant} -> "
            f"home mach {occupant}",
            page_bytes,
            cross_boundary=True,
            src=("slot", slot),
            dst=("mach", occupant),
        ),
    ]
