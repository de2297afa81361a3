"""Learn, annotate, model-check and test black-box protocol state machines.

The pipeline: infer a Mealy machine from a live system, attach security
propositions to its states with a context-based proposition map, translate
the annotated machine into a two-actor model (emitting actor-language
source), check generic temporal security properties against its state
space, and concretize any violation into a replayable test.
"""

from .automata import (MealyMachine, MachineError, EquivalenceResult,
                       bisimilar, reachable, complete, parse_dot, emit_dot,
                       EPSILON, TAU)
from .cpm import (Condition, Cpm, CpmError, AnnotatedMachine, parse_cpm,
                  matches, annotate, expand_tau, emit_annotated_dot,
                  parse_annotated_dot)
from .actorgen import (ActorModelIR, ActorGenError, build_ir, emit_rebeca,
                       apply_timeout_mutation, TIMEOUT_PROP)
from .statespace import (Lts, CollapsedModel, StateSpaceError, explore,
                         collapse, verify_roundtrip, kripke_from_collapsed,
                         emit_lts_dot, parse_lts_dot, RoundtripReport)
from .ltl import (Formula, LtlError, CeilingError, parse_ltl, to_nnf,
                  ltl_to_buchi, BuchiAutomaton, KripkeStructure, kripke_from_annotated,
                  Lasso, check, evaluate_on_lasso,
                  property_library, parse_property_file, vacuity,
                  CheckResult, HOLDS, VIOLATED,
                  PROPERTY_TEMPLATES, emit_property_file)
from .learning import (SulInterface, MachineSul,
                       ObservationTree, LearnResult, lstar_learn,
                       exact_oracle, random_walk_oracle,
                       build_emrtd_sul, build_uds_sul, build_emrtd_machine,
                       build_uds_machine, EMRTD_INPUTS, UDS_INPUTS,
                       LearnError, SulNondeterminismError)
from .mapper import Mapper, MappedSul
from .testkit import (TestCase, ReplayResult, TestKitError, concretize,
                      replay, feedback, read_tests,
                      CONFIRMED, DIVERGED)

__version__ = "0.1.0"
