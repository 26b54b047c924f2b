"""Error taxonomy shared across the package.

The CLI maps these onto exit codes: invalid input data is a DataError (exit 3),
an unusable parameter or combination of parameters is a ConfigError (exit
4), raised where the library checks it. Plain usage mistakes are argparse's
business (exit 2).
"""


class DataError(ValueError):
    """Input data is malformed or inconsistent."""


class ConfigError(ValueError):
    """A parameter, or a combination of parameters, is unusable."""
