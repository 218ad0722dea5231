"""Build script: compiles the fast simulation kernel when a C compiler is available.

The compiled extension is optional.  If it fails to build, setuptools
prints a warning and the package installs anyway, falling back to the
pure-Python kernel at import time (see maxentgames.kernels).
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension(
            "maxentgames._fastcore",
            ["src/maxentgames/_fastcore.c"],
            extra_compile_args=["-O3"],
            optional=True,
        )
    ],
)
