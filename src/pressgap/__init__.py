"""pressgap: thermodynamic-formalism experiments for expanding circle maps,
their inverse-limit extensions, and solenoid attractors.

The toolkit classifies orbit segments by hyperbolic-time windows, estimates
topological pressure on segment collections, constructs shadowing orbits for
lists of good segments, bounds Birkhoff variation over Bowen balls, and
estimates pressure from a transfer operator (Fourier collocation on analytic
maps and potentials, a grid elsewhere); the acceptance tests, not the
pressure commands, compare the two.
"""

__version__ = "0.1.0"

from .decomposition import (BadCollection, DecompositionConfig,
                            GoodCollection, ObstructionSample,
                            obstruction_sample)
from .errors import (BranchSolveError, ConvergenceError, CoverError,
                     GluingError, MixingCapError, NodeCapError, PressgapError,
                     ValidationError)
from .extension import (ExtensionConfig, bowen_bound, depth_for_tolerance,
                        extend, lift_fiber_averaged, lift_projection,
                        verify_bowen)
from .maps import (MapSystem, Potential, circle_dist, constant_potential,
                   doubling, geometric_potential, manneville_pomeau,
                   perturbed_doubling, tabulated_map, tabulated_potential,
                   zero_potential)
from .orbits import (CylinderTree, FullCollection, OrbitSegment,
                     partition_sum_sep, partition_sum_span)
from .pressure import (GapReport, HypothesisReport, PressureEstimate,
                       ct_hypothesis_check, gap_report, katok_sn,
                       pressure_at_scale)
from .solenoid import (AttractorBatch, SolenoidSystem, apply_f,
                       attractor_bowen_check, conjugacy_h, fiber_point,
                       fiber_sample, holonomy, metric_equivalence)
from .specification import (ExtensionGluingPlan, GluingPlan, glue_base,
                            glue_extension, verify_shadow,
                            verify_shadow_extension)
from .transfer import (EigenData, OperatorGrid, build_operator,
                       collocation_eigen, collocation_estimate, leading_eigen)
