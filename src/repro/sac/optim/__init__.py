"""SAC compiler optimization passes (AST-to-AST).  The pipeline they
form is :data:`repro.sac.driver.passes.PASSES`."""

from .coeffgroup import coeffgroup_pass
from .constfold import constfold_pass
from .dce import dce_pass
from .inline import inline_pass
from .partialsum import partialsum_pass
from .unroll import unroll_pass
from .wlfold import wlfold_pass

__all__ = [
    "inline_pass",
    "constfold_pass",
    "wlfold_pass",
    "unroll_pass",
    "coeffgroup_pass",
    "partialsum_pass",
    "dce_pass",
]
