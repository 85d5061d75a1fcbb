"""Setup script (legacy path: the offline environment lacks `wheel`)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Ultra-Low Power Design of Wearable Cardiac "
        "Monitoring Systems' (DAC 2014)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24", "scipy>=1.10"],
    # pytest-benchmark: the tier-1 command also collects benchmarks/.
    # pytest-cov: CI enforces the coverage floor (see ci.yml); the
    # plain tier-1 command runs without it.
    # hypothesis: the property-based tests under tests/.
    extras_require={"test": ["pytest", "pytest-benchmark", "pytest-cov",
                             "hypothesis"]},
)
