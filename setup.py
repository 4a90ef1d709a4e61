"""Setuptools entry point.

Kept alongside pyproject.toml so ``pip install -e .`` works in offline
environments without the ``wheel`` package (pip falls back to the legacy
``setup.py develop`` path when PEP 660 editable builds are unavailable).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "An approximate query processing (AQP) toolkit reproducing "
        "'Approximate Query Processing: No Silver Bullet' (SIGMOD 2017)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21"],
    extras_require={"dev": ["pytest", "hypothesis"]},
)
