(** The core XPDL meta-model: element kinds and their attribute schemas —
    the OCaml counterpart of the central [xpdl.xsd] (Sec. IV).  The
    toolchain's views ([xpdl.xsd], UML, the C++ query API) are generated
    from these tables, and {!Validate} checks models against them. *)

(** Element kinds of the XPDL language, one per XML tag. *)
type kind =
  | System
  | Cluster
  | Node
  | Socket
  | Cpu
  | Core
  | Cache
  | Memory
  | Device  (** accelerator board: GPU, DSP card, ... *)
  | Interconnect
  | Interconnects  (** container grouping interconnect instances *)
  | Channel  (** directional sub-link of an interconnect (Listing 3) *)
  | Group  (** grouping/replication construct (prefix/quantity) *)
  | Software
  | Host_os
  | Installed
  | Programming_model
  | Power_model
  | Power_domains
  | Power_domain
  | Power_state_machine
  | Power_states
  | Power_state
  | Transitions
  | Transition
  | Instructions
  | Instruction  (** [<inst>] *)
  | Data  (** per-frequency value row inside [<inst>] (Listing 14) *)
  | Microbenchmarks
  | Microbenchmark
  | Const
  | Param
  | Constraints
  | Constraint
  | Properties
  | Property
  | Other of string  (** unknown tag, preserved for extensibility *)

val kind_of_tag : string -> kind
val tag_of_kind : kind -> string
val equal_kind : kind -> kind -> bool
val pp_kind : Format.formatter -> kind -> unit

(** Declared type of an attribute value. *)
type attr_type =
  | A_string
  | A_int
  | A_float
  | A_bool
  | A_ident  (** a reference to a named model/meta-model *)
  | A_quantity of Xpdl_units.Units.dimension
      (** numeric metric whose unit comes from the sibling
          [<metric>_unit] attribute ([unit] for [size]) *)
  | A_enum of string list
  | A_expr  (** an {!Xpdl_expr.Expr} expression *)

type attr_spec = { a_name : string; a_type : attr_type; a_required : bool }

(** Attributes common to every element kind ([name], [id], [type],
    [extends], [role]). *)
val common_attrs : attr_spec list

(** Kind-specific attribute table.  The tables of every kind are built
    once; these accessors allocate nothing. *)
val specific_attrs : kind -> attr_spec list

(** All attribute specs admitted by [kind] (common + specific). *)
val attrs_of_kind : kind -> attr_spec list

(** The required entries of {!specific_attrs}. *)
val required_attrs : kind -> attr_spec list

val attr_spec : kind -> string -> attr_spec option

(** Param-type names usable in [<param type="...">] (not meta-model
    references): [msize], [integer], [frequency], ... *)
val param_type_names : string list

val is_param_type : string -> bool

(** Structural containment: which child kinds may appear under each
    parent (Sec. III-B). *)
val allowed_children : kind -> kind list

(** True if [child] may structurally appear directly under [parent];
    unknown ([Other]) children are always allowed (extensibility). *)
val child_allowed : parent:kind -> child:kind -> bool

(** Kinds denoting hardware components that contribute static power —
    the nodes of the hierarchical energy model (Sec. III-D). *)
val is_hardware : kind -> bool
