"""The uniqueness kernel: the pure-Python closed form in :mod:`posfact._kernel_py`."""

from . import _kernel_py as kernel


def backend_name() -> str:
    """Name of the kernel implementation in use; there is only the pure one."""
    return "pure"
