"""Exact crystal combinatorics on Maya diagrams with a Fock-space oracle."""

from .datum import (
    CartanData,
    CrystalDatum,
    datum_from_word,
)
from .fock import (
    MINUS,
    PLUS,
    FockVector,
    e_act,
    e_plus_act,
    pairing,
    vec_val,
    x_act,
)
from .graph import (
    CrystalGraph,
    check_axioms,
    explore,
    export,
    kostant,
    kostant_brute,
    load_json,
    weight_census,
)
from .laurent import INF, LaurentPoly, MultiPoly
from .maya import (
    BLACK,
    LEFT_BLACK,
    RIGHT_BLACK,
    WHITE,
    BoxRef,
    ChargedPartition,
    Interval,
    MayaDiagram,
    add_box,
    addable_boxes,
    box_label_multiset,
    box_slot_label,
    from_partition,
    invert_outside,
    lambda_diagram,
    removable_boxes,
    remove_box,
    s_lambda_diagram,
    to_partition,
)
from .oracle import (
    GroupWord,
    compare,
    d_gamma,
    d_tau,
    generic_element,
    oracle_eval,
    oracle_theta,
)

__version__ = "0.1.0"
