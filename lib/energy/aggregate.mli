(** Hierarchical energy modeling: synthesized attributes computed
    bottom-up over the model tree, attribute-grammar style (Sec. III-D).
    Metadata subtrees (power models, software) are excluded from the
    walk. *)

open Xpdl_core

(** A synthesized attribute: a node's own contribution and the rule
    combining it with the children's synthesized values. *)
type 'a rule = {
  own : Model.element -> 'a option;
  combine : 'a option -> 'a list -> 'a;
}

(** Bottom-up evaluation over the tree; returns the root's value. *)
val synthesize : 'a rule -> Model.element -> 'a

(** Like {!synthesize} but also returning the per-node table (preorder,
    path-keyed) for breakdown reports.  Path keys are unique and stable:
    identified nodes whose scope path collides with an earlier one
    (sibling id collisions, group [prefix]/[quantity] replicas) get a
    [#2], [#3], ... suffix in document order. *)
val synthesize_table : 'a rule -> Model.element -> 'a * (string * 'a) list

(** Sum a quantity attribute over all hardware components. *)
val sum_rule : string -> float rule

(** Total static power (W) of the subtree. *)
val static_power : Model.element -> float

val static_power_breakdown : Model.element -> float * (string * float) list

(** Total core count — the derived-attribute example of Sec. IV. *)
val core_count : Model.element -> int

(** Total memory capacity in bytes. *)
val memory_bytes : Model.element -> float

(** The unmodeled (motherboard etc.) share: max(0, measured − modeled)
    attributed to the root node (Sec. III-B). *)
val unmodeled_share : measured_total:float -> Model.element -> float

(** Static energy (J) of keeping the subtree powered for [duration] s. *)
val static_energy : duration:float -> Model.element -> float
