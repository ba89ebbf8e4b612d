"""Guard exceptions shared across the package, and how their messages name a bound."""


class RecdivError(Exception):
    """Base class for guard failures raised by this package."""


class MemoryGuardError(RecdivError):
    """A sieve was refused because its expected footprint exceeds the budget."""


class BudgetError(RecdivError):
    """An enumeration or layout exceeded its configured work budget."""


def bound_text(n: int) -> str:
    """n in decimal, or by bit length past the 4,300 digits str converts by default."""
    try:
        return str(n)
    except ValueError:
        return f"a {'negative ' if n < 0 else ''}{n.bit_length()}-bit integer"
