"""Packaging for the semantic-aware blocking reproduction.

Metadata lives here (not pyproject.toml) on purpose: the target
environments may lack the ``wheel`` package, so a PEP 517 editable
install cannot build a wheel; plain ``setup.py``-driven installs
(``pip install -e .``) work everywhere setuptools does, offline
included.
"""

from setuptools import find_packages, setup

_version: dict = {}
with open("src/repro/_version.py", encoding="utf-8") as fh:
    exec(fh.read(), _version)

setup(
    name="repro-salsh",
    version=_version["__version__"],
    description=(
        "Reproduction of semantic-aware LSH blocking for entity "
        "resolution, grown into a streaming blocking toolkit"
    ),
    author="paper-repo-growth",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # numpy >= 2.0: the batch matcher popcounts bitsets with
    # np.bitwise_count, introduced in 2.0.
    install_requires=["numpy>=2.0"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
