"""The package's two exception types, and the one rule that picks a type.

- A check that input from outside the program can fail raises
  `FloodgateError`. Outside input is a capture, a CSV (dataset or ground
  truth), a model file or a scenario. `floodgate` prints the message and
  exits 2.
- Training that diverges on such input raises `NonFiniteLoss`, a
  `FloodgateError`; `floodgate` exits 3.
- A check that only a caller's bug can fail (an argument no subcommand can
  pass, or a value an earlier check has already ruled out) raises
  `ValueError`, and `floodgate` lets it end in a traceback.
"""


class FloodgateError(Exception):
    """Input from outside the program is invalid; the message says where and why."""


class NonFiniteLoss(FloodgateError):
    """Training diverged: the unclamped loss stopped being finite."""
