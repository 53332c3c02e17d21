"""The model names and the evaluation error types, without the models: the
command line needs them before it loads a model, and numpy with it."""


class EvalError(ValueError):
    """Unbound box, witness/split inconsistency, or bad model data."""


class FeedbackError(EvalError):
    """Metric feedback iteration failed at a valid point: an iterate is not
    finite, or the iteration outran its a-priori step bound."""


# the backends by name, in the order check_axiom's seeds number them
MODEL_NAMES = ("finset", "metric", "tot", "hilbert", "flat")
