"""apemkit: adversarial-perturbation evaluation of pixel relevance maps.

`apemkit.apem` is the mean-gap function exported below, not the submodule
it comes from; `importlib.import_module("apemkit.apem")` returns the module.
"""

from .apem import (
    GapResult,
    apem,
    direct,
    find_epsilon,
    find_epsilon_scan,
    gap,
    gap_quartiles,
    gaps,
    irrelevance,
    normalize_l1,
    shuffle_map,
)
from .data import load_idx_dataset, synthetic_dataset
from .explain import (
    METHOD_NAMES,
    RawAttribution,
    RelevanceMap,
    compute_map,
    gradcam_map,
    gradient_map,
    guided_backprop_map,
    guided_gradcam_map,
    lrp_epsilon_map,
    simplify,
    smoothgrad_map,
)
from .filtering import FilterTrace, filter_map
from .modelio import load_model, save_model
from .netcore import (
    Conv2D,
    Dataset,
    Dense,
    Flatten,
    MaxPool2D,
    Network,
    Prediction,
    ReLU,
    accuracy,
    feature_map_gradient,
    forward,
    guided_input_gradient,
    input_gradient,
    loss,
    train,
)
from .stats import (
    CorrelationResult,
    MethodSummary,
    epsilon_plus_diff,
    pairwise,
    spearman,
    summarize,
)

__version__ = "0.1.0"
