"""Known-bad RPL030 (Retro machine): reading a snapshot marked unavailable.

After ``mark_unavailable`` the manager is definitely degraded; serving
``snapshot_source`` without re-checking availability reads through a
snapshot known to be damaged.
"""


def reread(retro, snap_id, read_page, size):
    retro.mark_unavailable(snap_id)
    return retro.snapshot_source(snap_id, read_page, size)
