"""ext3-like journaling filesystem substrate.

The names resolve lazily (:mod:`repro._lazy`): an NFS stack runs ext3
at the server and never loads the client-side :class:`Vfs`.
"""

from .._lazy import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "alloc": ("ExtentAllocator", "IdAllocator"),
    "errors": ("DirectoryNotEmpty", "FileExists", "FileNotFound", "FsError",
               "InvalidArgument", "IsADirectory", "NoSpace", "NotADirectory",
               "PermissionDenied"),
    "ext3": ("Ext3Fs", "ROOT_INO"),
    "inode": ("FileAttributes", "FileType", "Inode"),
    "journal": ("Journal",),
    "layout": ("DiskLayout",),
    "vfs": ("Vfs",),
})
