"""The package version, read by the package, the report writer and setuptools."""

__version__ = "0.1.0"
