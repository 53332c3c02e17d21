"""The model names and the evaluation error type, without the models: the
command line needs both before it loads a model, and numpy with it."""


class EvalError(ValueError):
    """Unbound box, witness/split inconsistency, or bad model data."""


# the backends by name, in the order check_axiom's seeds number them
MODEL_NAMES = ("finset", "metric", "tot", "hilbert", "flat")
