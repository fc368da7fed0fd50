(** Typed in-memory representation of XPDL models and meta-models.

    Structural attributes ([name], [id], [type], [extends],
    group [prefix]/[quantity]) are parsed into fields; all other
    attributes become typed {!attr_value}s validated against {!Schema}.
    ["?"] placeholders are preserved as {!attr_value.Unknown} so the
    toolchain can resolve them at deployment time. *)

type attr_value =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool
  | Quantity of Xpdl_units.Units.t * string
      (** normalized quantity plus the unit spelling from the source *)
  | Expr of Xpdl_expr.Expr.t * string  (** parsed expression and its source text *)
  | Unknown  (** the ["?"] placeholder: derive by microbenchmarking *)

val pp_attr_value : Format.formatter -> attr_value -> unit
val equal_attr_value : attr_value -> attr_value -> bool

(** An element and its subtree.  Trees are immutable, and a composed
    tree may share subtrees: {!Instantiate.run} returns what it does not
    change as itself, and the copies of a replicated group share their
    member's subtrees.  One element value can thus sit at several places
    of a tree, so never compare elements with [==]/[!=]: physical
    identity says nothing about position.  Address a node by its
    {!index_path}. *)
type element = {
  kind : Schema.kind;
  name : string option;  (** meta-model identifier ([name] attribute) *)
  id : string option;  (** concrete instance identifier ([id] attribute) *)
  type_ref : string option;  (** [type] reference to a meta-model *)
  extends : string list;  (** supertype names, left-to-right priority *)
  attrs : (string * attr_value) list;  (** non-structural attributes, in order *)
  children : element list;
  pos : Xpdl_xml.Dom.position;
}

val make :
  ?pos:Xpdl_xml.Dom.position ->
  ?name:string ->
  ?id:string ->
  ?type_ref:string ->
  ?extends:string list ->
  ?attrs:(string * attr_value) list ->
  ?children:element list ->
  Schema.kind ->
  element

(** The identifier under which this element can be referenced: [name]
    for meta-models, [id] for concrete models (Sec. III-A). *)
val identifier : element -> string option

(** True if the element declares a meta-model (has a [name]). *)
val is_meta : element -> bool

val attr : element -> string -> attr_value option
val attr_string : element -> string -> string option
val attr_int : element -> string -> int option
val attr_float : element -> string -> float option
val attr_bool : element -> string -> bool option
val attr_quantity : element -> string -> Xpdl_units.Units.t option

(** True if the attribute is present but marked ["?"]. *)
val attr_is_unknown : element -> string -> bool

val set_attr : element -> string -> attr_value -> element
val remove_attr : element -> string -> element

(** {1 Tree traversal} *)

val fold : ('a -> element -> 'a) -> 'a -> element -> 'a
val iter : (element -> unit) -> element -> unit
val size : element -> int

(** All elements of a given kind in the subtree (document order). *)
val elements_of_kind : Schema.kind -> element -> element list

(** Subtrees describing hardware {e metadata} (power models, ISAs,
    microbenchmark suites, software) rather than hardware — their member
    selectors must not be confused with physical components. *)
val is_metadata_subtree : Schema.kind -> bool

(** Like {!fold} but skipping metadata subtrees: the walk over
    {e physical} hardware. *)
val hardware_fold : ('a -> element -> 'a) -> 'a -> element -> 'a

(** Physical hardware elements of one kind (no power-domain selectors). *)
val hardware_elements_of_kind : Schema.kind -> element -> element list

(** {1 Index-path edits}

    A child-index path addresses one node of the tree positionally:
    [[]] is the root, [[i]] the root's [i]-th child, and so on.  Unlike
    scope paths, index paths address {e every} node — including unnamed
    elements and group-expanded duplicates — which is what the
    incremental store's edit API needs. *)

type index_path = int list

(** The element at an index path, if the path is in range. *)
val at_index_path : element -> index_path -> element option

(** Rebuild the spine from the root to the addressed node, applying [f]
    there; every node off the spine is shared with the input tree.
    Raises [Invalid_argument] if the path is out of range. *)
val update_at : element -> index_path -> (element -> element) -> element

(** Fold over all nodes with their index paths (document order). *)
val fold_index_paths : ('a -> index_path -> element -> 'a) -> 'a -> element -> 'a

(** Index path of the first node satisfying the predicate. *)
val index_path_where : (element -> bool) -> element -> index_path option

val find : (element -> bool) -> element -> element option
val find_by_id : string -> element -> element option
val find_by_name : string -> element -> element option
val children_of_kind : element -> Schema.kind -> element list

(** Children with [group] scopes flattened away (hierarchical scoping
    treats groups as scopes, not hardware). *)
val transparent_children : element -> element list

(** All meta-model names referenced from the subtree via [type] or
    [extends] — the hyperlinks the repository must resolve.  Excludes
    label-like uses of [type] (memory technologies, programming models,
    microbenchmark instruction names, power-domain member selectors). *)
val referenced_types : element -> string list

val pp : Format.formatter -> element -> unit
val to_string : element -> string

(** Convert back to XML (inverse of elaboration up to attribute
    normalization); used to serialize composed models. *)
val to_xml : element -> Xpdl_xml.Dom.element
