"""Optional build of the compiled kernel extension from the shipped C source.

The package works without it (``seqforge.kernels`` falls back to the
pure-Python kernels when ``_ckernels`` does not import); with a C compiler
the extension builds as part of the install, or in place with:

    python setup.py build_ext --inplace
"""
from setuptools import Extension, setup

setup(ext_modules=[
    Extension("seqforge._ckernels", ["src/seqforge/_ckernels.c"], optional=True),
])
