"""Known-good RPL030 (Retro machine) counterpart: availability re-checked.

``snapshot_available`` moves the manager out of the degraded state, so
the subsequent read is ordered behind an explicit re-check.
"""


def reread(retro, snap_id, read_page, size):
    retro.mark_unavailable(snap_id)
    if retro.snapshot_available(snap_id):
        return retro.snapshot_source(snap_id, read_page, size)
    return None
