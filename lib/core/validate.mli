(** Static validation of XPDL models against the {!Schema} — the checks
    PDL's free-form string properties cannot support (Sec. II-C). *)

val is_valid_identifier : string -> bool

(** Individual checks (also run by {!run}); each returns its
    diagnostics. *)

val check_identifiers : Model.element -> Diagnostic.t list
val check_required_attrs : Model.element -> Diagnostic.t list

(** Ids must be unique among siblings of the same scope. *)
val check_unique_ids : Model.element -> Diagnostic.t list

(** [head]/[tail] of interconnect instances must name components within
    the enclosing system (Listing 4). *)
val check_interconnect_endpoints : Model.element -> Diagnostic.t list

(** Power state machines must be internally consistent. *)
val check_power_models : Model.element -> Diagnostic.t list

val check_microbenchmark_refs : Model.element -> Diagnostic.t list

(** Referenced meta-models must exist when a [lookup] is supplied. *)
val check_references : ?lookup:Inheritance.lookup -> Model.element -> Diagnostic.t list

(** Run every check. *)
val run : ?lookup:Inheritance.lookup -> Model.element -> Diagnostic.t list
