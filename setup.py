"""Setuptools metadata so ``pip install -e .`` works with older tooling.

This file holds all of the project's packaging metadata; there is no
``pyproject.toml``.  Everything else runs from a checkout with
``PYTHONPATH=src``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Operational adversarial example detection for reliable deep learning "
        "(DSN 2021 reproduction)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21", "scipy>=1.7"],
)
