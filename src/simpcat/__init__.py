"""Finite workbench for simplicial categories and their stable calculus.

Everything is bounded and exact: truncated simplicial and bisimplicial
sets, finite categories and groupoids, levelwise simplicial categories,
integral homology via Smith normal form, and a spectrum layer with
decidable probes.  The convenience imports below cover the main entry
points; the submodules hold the full API.
"""

from .sset import (TruncatedSimplicialSet, SimplicialMap, delta, boundary,
                   horn, sphere, point, two_point, c_sigma, product_sset,
                   colimit_sset, enumerate_maps)
from .bisset import (TruncatedBisimplicialSet, BidegreeShape, box_product,
                     dec, d_star, diag, wbar)
from .cat import (FinCategory, Functor, discrete, chaotic, terminal_cat,
                  cyclic_group, arrow_cat, nerve, fundamental_groupoid,
                  materialize_groupoid, colimit_cat, equalizer_cat,
                  enumerate_functors)
from .homology import (AbelianGroupDescriptor, ProbeVerdict, homology,
                       homology_list, pi0, edge_path_group, abelianization,
                       weak_equivalence_probe)
from .scat import (SimplicialCategory, SimplicialFunctor, constant_scat,
                   s0_scat, add_basepoint, pi_levelwise, diag_nerve_iso,
                   wbar_nerve_iso, rho, smash, suspend,
                   enumerate_simplicial_functors)
from .spectra import (SpectrumObject, sigma_infinity, terminal_spectrum,
                      shift, mapping_space, omega_spectrum_probe, k_groups)
from .document import parse_document, serialize_document, WorkbenchDocument
from .suites import SUITES, run_suite

__version__ = "0.1.0"
