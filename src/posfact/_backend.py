"""The window-scan kernel: the pure-Python scan in :mod:`posfact._kernel_py`."""

from . import _kernel_py as kernel


def backend_name() -> str:
    """Name of the kernel implementation in use; there is only the pure one."""
    return "pure"
