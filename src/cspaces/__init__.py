"""Finitely-presented controlled spaces: membership, classification,
constructions and reachability."""

from .classify import (PointClassification, classify_point, is_flexible_path,
                       is_flexible_point, is_rigid_path, is_rigid_space,
                       is_splittable)
from .construct import (CMap, EdgeImage, check_cmap, cmap, exclude_endpoints,
                        flexible_part, functor_D, functor_Dc, functor_Dprime,
                        hat, is_finer, map_path, map_point, opposite, product,
                        quotient_identify, reversible_closure,
                        reversible_part, subspace, sum_space)
from .corpus import build, names
from .kinds import LOOPS, EdgeKind, Family, Fragment
from .membership import ParseOutcome, is_controlled, parse_controlled
from .model import (CanonicalPath, EdgePoint, ModelError, Pause, PAUSE,
                    Position, ProdSeg, PTuple, Rat, RigidTrace, Run, Seg,
                    Track, TraceStep, UnsupportedConstruction, Vertex,
                    assemble, concat, rat, rat_str, reverse_path)
from .presentation import (Edge, ExcludeEndpoints, GraphPresentation,
                           Opposite, Product, ProductN, Quotient, Subspace,
                           Sum, canonicalize, insert_pause, normalize,
                           project, split_path, validate)
from .reach import (ReachRelation, ReachResult, c_reachable, d_reachable,
                    reach_relation, unavoidable_point)

__version__ = "0.1.0"
