"""NFS protocol stack: v2/v3/v4 client and server, plus pNFS striping.

The names resolve lazily (:mod:`repro._lazy`): an NFS stack loads the
client, server and protocol modules but not pNFS (the shared testbed
and the farm load it), and an iSCSI stack loads none of them.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "client": ("NfsClient",),
    "server": ("NfsServer", "ServerState"),
    "pnfs": ("StripeLayout", "StripedNfsClient"),
    "protocol": ("protocol",),
})
