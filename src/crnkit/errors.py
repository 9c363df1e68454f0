"""Shared exception types.

Every domain failure carries a stable ``code`` string (``E_DIM``,
``E_NEG``, ...) so callers and the CLI can branch on the kind of error
without matching message text.
"""


class CrnError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "E_ERROR"


class DimensionMismatch(CrnError):
    """A vector's length does not match the network's species count."""

    code = "E_DIM"


class NegativeConcentration(CrnError):
    """A classical state has a negative entry."""

    code = "E_NEGC"


class NegativeState(CrnError):
    """Integration drove a concentration below the roundoff clamp."""

    code = "E_NEG"


class NoConvergence(CrnError):
    """Equilibrium search exhausted its time or iteration budget."""

    code = "E_NOCONV"


class InvalidValue(CrnError, ValueError):
    """A numeric input is NaN, infinite or outside its domain."""

    code = "E_VALUE"


class BudgetExceeded(CrnError):
    """A computation would exceed its fixed size budget."""

    code = "E_BUDGET"


class BoxMismatch(CrnError):
    """Operands live on different truncation boxes."""

    code = "E_BOX"


class EmptySector(CrnError):
    """The projection target sector carries no probability mass."""

    code = "E_EMPTY_SECTOR"


class SymmetryOverflow(CrnError):
    """exp(s*O) would exceed the double-precision exponent range."""

    code = "E_OVERFLOW"


class PopulationExplosion(CrnError):
    """A population grew without bound.

    A stochastic trajectory exceeded its per-species safety cap, or the
    rate equation's state or field stopped being finite (blow-up).
    """

    code = "E_EXPLODE"
