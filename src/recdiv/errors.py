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


def budget_error(task: str, value: int, budget: int, setting: str, unit: str = "") -> BudgetError:
    """The one form of every work guard's refusal.

    It names the task and the value it refused, the budget, which is the
    most the guard admits, and the setting that changes it:
    "<task> <value> exceeds the work budget of <budget><unit>; <setting> sets it".
    """
    return BudgetError(
        f"{task} {bound_text(value)} exceeds the work budget of {bound_text(budget)}{unit}; "
        f"{setting} sets it"
    )
