"""Legacy setup shim.

An environment without the ``wheel`` package cannot build the wheel a
PEP 517 editable install needs.  This shim lets
``pip install -e . --no-build-isolation --no-use-pep517`` (or plain
``python setup.py develop``) install the package via the classic
setuptools path.  The repository has no ``pyproject.toml`` and this
file passes no metadata: setuptools' src-layout discovery finds the
``repro`` package and installs it as ``repro`` 0.0.0.  The tests and
tools run from the checkout with ``PYTHONPATH=src`` instead.
"""

from setuptools import setup

setup()
