"""Build script: compiles the fast simulation kernel when a C compiler is available.

The compiled extension is optional.  If no C compiler is available the
package installs anyway and falls back to the pure-Python kernel at import
time (see maxentgames.kernels).
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class optional_build_ext(build_ext):
    """Swallow compiler failures so the pure-Python install still succeeds."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001 - any toolchain failure
            self._warn(exc)

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            self._warn(exc)

    @staticmethod
    def _warn(exc):
        print(f"WARNING: building the compiled kernel failed ({exc}); "
              "installing with the pure-Python kernel only.")


setup(
    ext_modules=[
        Extension(
            "maxentgames._fastcore",
            ["src/maxentgames/_fastcore.c"],
            extra_compile_args=["-O3"],
        )
    ],
    cmdclass={"build_ext": optional_build_ext},
)
