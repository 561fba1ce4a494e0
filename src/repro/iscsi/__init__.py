"""iSCSI protocol stack: initiator (client), target (server), MC/S.

The names resolve lazily (:mod:`repro._lazy`): an iSCSI stack loads the
initiator, target and SCSI modules, MC/S loads only for a session of
more than one connection, and an NFS stack loads none of them.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "initiator": ("IscsiInitiator",),
    "target": ("IscsiTarget",),
    "mcs": ("MCS_POLICIES", "McsSession"),
    "scsi": ("scsi",),
})
