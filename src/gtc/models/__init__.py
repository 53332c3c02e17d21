"""Concrete categories in which typed expressions are evaluated.

Five backends, each a ``Model`` reading its own bindings JSON, share one
interpretation routine (``eval_expr``):

* finset    -- functions between tagged disjoint unions; feedback never
               actually fires because promised gates cannot be reached
* metric    -- blocks of real vectors under the sup metric; feedback is
               solved by contraction iteration
* trees     -- stage-indexed families of finite sets; feedback is solved
               stage by stage, one step behind
* hilbert   -- real matrices under Kronecker tensor; feedback is the
               partial trace over the loop factor
* flatposet -- finite posets and monotone maps; recursion by least
               fixpoints over lifted carriers
"""

from .base import EvalError, Model, eval_expr
from .finset import FinSetModel, FinSetMorphism, finset_iter
from .flatposet import (
    FlatPosetModel,
    Poset,
    PosetMorphism,
    flat,
    grec_to_rec,
    lfp_rec,
    lift,
    rec_to_grec,
)
from .hilbert import (
    HilbertModel,
    HilbertMorphism,
    hs_factored_trace,
    hs_sum_trace,
    kron_perm,
)
from .metric import MetricModel, MetricMorphism, banach_rec
from .trees import StageObject, ToposOfTreesModel, ToTMorphism

# the backends by name, in the order check_axiom's seeds number them
MODELS = {
    m.name: m
    for m in (FinSetModel, MetricModel, ToposOfTreesModel, HilbertModel, FlatPosetModel)
}
MODEL_NAMES = tuple(MODELS)

__all__ = [
    "EvalError",
    "Model",
    "eval_expr",
    "FinSetModel",
    "FinSetMorphism",
    "finset_iter",
    "MetricModel",
    "MetricMorphism",
    "banach_rec",
    "StageObject",
    "ToposOfTreesModel",
    "ToTMorphism",
    "HilbertModel",
    "HilbertMorphism",
    "hs_factored_trace",
    "hs_sum_trace",
    "kron_perm",
    "FlatPosetModel",
    "Poset",
    "PosetMorphism",
    "flat",
    "lift",
    "lfp_rec",
    "rec_to_grec",
    "grec_to_rec",
    "MODELS",
    "MODEL_NAMES",
]
