(** Typed in-memory representation of XPDL models and meta-models.

    An XPDL descriptor elaborates from XML into a tree of {!element}s.
    The structural attributes that drive reuse — [name] (meta-model id),
    [id] (concrete id), [type] (meta-model reference), [extends]
    (supertypes), [prefix]/[quantity] on groups — are parsed into fields;
    all other attributes become typed {!attr_value}s validated against
    {!Schema}.  [?] placeholders (energy values to be filled in by
    microbenchmarking, Listing 14) are preserved as {!attr_value.Unknown}
    so the toolchain can find and resolve them at deployment time. *)

open Xpdl_units

type attr_value =
  | Str of string
  | Int of int
  | Float of float
  | Bool of bool
  | Quantity of Units.t * string
      (** normalized quantity plus the unit spelling from the source, kept
          for faithful re-printing *)
  | Expr of Xpdl_expr.Expr.t * string  (** parsed expression and its source text *)
  | Unknown  (** the ["?"] placeholder: derive by microbenchmarking *)

let pp_attr_value ppf = function
  | Str s -> Fmt.pf ppf "%S" s
  | Int i -> Fmt.int ppf i
  | Float f -> Fmt.pf ppf "%g" f
  | Bool b -> Fmt.bool ppf b
  | Quantity (q, _) -> Units.pp ppf q
  | Expr (_, src) -> Fmt.pf ppf "expr(%s)" src
  | Unknown -> Fmt.string ppf "?"

let equal_attr_value a b =
  match (a, b) with
  | Str x, Str y -> String.equal x y
  | Int x, Int y -> Int.equal x y
  | Float x, Float y -> Float.equal x y
  | Bool x, Bool y -> Bool.equal x y
  | Quantity (x, _), Quantity (y, _) -> Units.equal x y
  | Expr (_, x), Expr (_, y) -> String.equal x y
  | Unknown, Unknown -> true
  | (Str _ | Int _ | Float _ | Bool _ | Quantity _ | Expr _ | Unknown), _ -> false

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

(** {1 Construction} *)

let make ?(pos = Xpdl_xml.Dom.no_position) ?name ?id ?type_ref ?(extends = []) ?(attrs = [])
    ?(children = []) kind =
  { kind; name; id; type_ref; extends; attrs; children; pos }

(** {1 Accessors} *)

(** The identifier under which this element can be referenced: [name] for
    meta-models, [id] for concrete models (Sec. III-A). *)
let identifier e =
  match e.name with Some n -> Some n | None -> e.id

(** True if the element declares a meta-model (has a [name]). *)
let is_meta e = Option.is_some e.name

let attr e key = List.assoc_opt key e.attrs

let attr_string e key =
  match attr e key with
  | Some (Str s) -> Some s
  | Some (Int i) -> Some (string_of_int i)
  | Some (Float f) -> Some (Fmt.str "%g" f)
  | Some (Bool b) -> Some (string_of_bool b)
  | Some (Expr (_, src)) -> Some src
  | Some (Quantity (q, _)) -> Some (Units.to_string q)
  | Some Unknown | None -> None

let attr_int e key =
  match attr e key with
  | Some (Int i) -> Some i
  | Some (Float f) -> Some (int_of_float f)
  | Some (Str s) -> int_of_string_opt s
  | Some (Expr (Xpdl_expr.Expr.Number f, _)) -> Some (int_of_float f)
  | _ -> None

let attr_float e key =
  match attr e key with
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | Some (Str s) -> float_of_string_opt s
  | _ -> None

let attr_bool e key =
  match attr e key with
  | Some (Bool b) -> Some b
  | Some (Str s) -> bool_of_string_opt s
  | _ -> None

let attr_quantity e key =
  match attr e key with Some (Quantity (q, _)) -> Some q | _ -> None

(** True if the attribute is present but marked ["?"] (to be derived). *)
let attr_is_unknown e key =
  match attr e key with Some Unknown -> true | _ -> false

let set_attr e key v =
  let found = ref false in
  let attrs =
    List.map
      (fun (k, old) ->
        if String.equal k key then begin
          found := true;
          (k, v)
        end
        else (k, old))
      e.attrs
  in
  if !found then { e with attrs } else { e with attrs = e.attrs @ [ (key, v) ] }

let remove_attr e key = { e with attrs = List.filter (fun (k, _) -> not (String.equal k key)) e.attrs }

(** {1 Tree traversal} *)

(* The walks recurse over child lists directly: [List.fold_left (fold f)]
   would allocate a closure for every node visited. *)
let rec fold f acc e = fold_list f (f acc e) e.children

and fold_list f acc = function [] -> acc | c :: rest -> fold_list f (fold f acc c) rest

let rec iter f e =
  f e;
  iter_list f e.children

and iter_list f = function
  | [] -> ()
  | c :: rest ->
      iter f c;
      iter_list f rest

let size e = fold (fun n _ -> n + 1) 0 e

(** All elements of a given kind in the subtree (document order). *)
let elements_of_kind kind e =
  List.rev (fold (fun acc x -> if Schema.equal_kind x.kind kind then x :: acc else acc) [] e)

(* Subtrees that describe hardware *metadata* rather than hardware:
   power models contain member *selectors* (e.g. [<core/>] inside a
   power_domain, Listing 12) that must not be confused with the physical
   components they select. *)
let is_metadata_subtree = function
  | Schema.Power_model | Schema.Power_domains | Schema.Power_domain
  | Schema.Power_state_machine | Schema.Instructions | Schema.Microbenchmarks
  | Schema.Software | Schema.Properties | Schema.Constraints ->
      true
  | _ -> false

(** Like {!fold} but skipping metadata subtrees (power models, ISAs,
    microbenchmarks, software) — the walk over {e physical} hardware. *)
let rec hardware_fold f acc e =
  if is_metadata_subtree e.kind then acc else hardware_fold_list f (f acc e) e.children

and hardware_fold_list f acc = function
  | [] -> acc
  | c :: rest -> hardware_fold_list f (hardware_fold f acc c) rest

(** Physical hardware elements of one kind: like {!elements_of_kind} but
    excluding power-domain member selectors and other metadata. *)
let hardware_elements_of_kind kind e =
  List.rev
    (hardware_fold (fun acc x -> if Schema.equal_kind x.kind kind then x :: acc else acc) [] e)

(** {1 Index-path edits}

    Child-index paths address nodes positionally ([[]] = root), so every
    node is addressable — unnamed elements and group-expanded duplicates
    included.  [update_at] rebuilds only the spine from the root to the
    edited node; everything off the spine is shared, which is what makes
    the incremental store's single-edit cost O(depth · fan-out) instead
    of O(model). *)

type index_path = int list

let rec at_index_path e = function
  | [] -> Some e
  | i :: rest -> (
      match List.nth_opt e.children i with
      | Some c -> at_index_path c rest
      | None -> None)

let rec update_at e path f =
  match path with
  | [] -> f e
  | i :: rest ->
      if i < 0 || i >= List.length e.children then
        invalid_arg "Model.update_at: index path out of range";
      { e with children = List.mapi (fun j c -> if j = i then update_at c rest f else c) e.children }

let fold_index_paths f acc e =
  (* paths are built root-first by carrying the reversed prefix *)
  let rec go acc rev_path e =
    let acc = f acc (List.rev rev_path) e in
    List.fold_left
      (fun (acc, i) c -> (go acc (i :: rev_path) c, i + 1))
      (acc, 0) e.children
    |> fst
  in
  go acc [] e

let index_path_where p e =
  let exception Found of index_path in
  try
    fold_index_paths (fun () path x -> if p x then raise (Found path)) () e;
    None
  with Found path -> Some path

(** First element satisfying [p] in the subtree, depth-first. *)
let find p e =
  let exception Found of element in
  try
    iter (fun x -> if p x then raise (Found x)) e;
    None
  with Found x -> Some x

(** Find by concrete instance id. *)
let find_by_id ident e = find (fun x -> match x.id with Some i -> String.equal i ident | None -> false) e

(** Find by meta-model name. *)
let find_by_name ident e =
  find (fun x -> match x.name with Some n -> String.equal n ident | None -> false) e

let children_of_kind e kind = List.filter (fun c -> Schema.equal_kind c.kind kind) e.children

(** Direct children of a group-transparent view: children of [e] where any
    [group] child is replaced by its own (transparent) children,
    recursively.  Hierarchical scoping in XPDL treats groups as scopes but
    not as hardware (Listing 1: L2 is "in the same scope as" the cores'
    group). *)
let rec transparent_children e =
  List.concat_map
    (fun c ->
      if Schema.equal_kind c.kind Schema.Group then transparent_children c else [ c ])
    e.children

(** {1 Reference collection} *)

(** All meta-model names referenced from the subtree via [type] or
    [extends] — the hyperlinks the repository must resolve (Sec. III).

    Two uses of [type] are deliberately excluded because the paper uses
    them as labels rather than references: [type] on [memory] elements
    denotes a memory technology ([type="DDR3"], [type="global"],
    Listings 2 and 8), and [type] on elements inside a [power_domain]
    selects member hardware instances of the enclosing model rather than
    a repository descriptor ([<core type="Leon"/>], Listing 12). *)
let referenced_types e =
  let mem n acc = List.exists (String.equal n) acc in
  let add acc n = if mem n acc then acc else n :: acc in
  let is_label (x : element) =
    Schema.equal_kind x.kind Schema.Memory
    || Schema.equal_kind x.kind Schema.Property
    || Schema.equal_kind x.kind Schema.Programming_model
    || Schema.equal_kind x.kind Schema.Microbenchmark
  in
  let rec go acc (x : element) =
    if Schema.equal_kind x.kind Schema.Power_domain then acc
    else
      let acc =
        match x.type_ref with
        | Some t when (not (mem t acc)) && (not (Schema.is_param_type t)) && not (is_label x) ->
            t :: acc
        | Some _ | None -> acc
      in
      let acc = List.fold_left add acc x.extends in
      List.fold_left go acc x.children
  in
  List.rev (go [] e)

(** {1 Printing} *)

let rec pp ppf e =
  let pp_field name ppf = function
    | None -> ()
    | Some v -> Fmt.pf ppf " %s=%s" name v
  in
  Fmt.pf ppf "@[<v 2><%s%a%a%a%a%a>%a@]" (Schema.tag_of_kind e.kind) (pp_field "name") e.name
    (pp_field "id") e.id (pp_field "type") e.type_ref
    (fun ppf -> function
      | [] -> ()
      | supers -> Fmt.pf ppf " extends=%a" Fmt.(list ~sep:comma string) supers)
    e.extends
    Fmt.(list ~sep:nop (fun ppf (k, v) -> Fmt.pf ppf " %s=%a" k pp_attr_value v))
    e.attrs
    Fmt.(list ~sep:nop (fun ppf c -> Fmt.pf ppf "@,%a" pp c))
    e.children

let to_string e = Fmt.str "%a" pp e

(** Convert back to a {!Xpdl_xml.Dom} tree (inverse of elaboration up to
    attribute normalization); used to serialize composed models. *)
let rec to_xml e =
  let string_of_value = function
    | Str s -> s
    | Int i -> string_of_int i
    | Float f -> Fmt.str "%g" f
    | Bool b -> string_of_bool b
    | Quantity (q, unit_spelling) -> Fmt.str "%g" (Units.to_unit q unit_spelling)
    | Expr (_, src) -> src
    | Unknown -> "?"
  in
  let structural =
    List.filter_map
      (fun (k, v) -> Option.map (fun s -> Xpdl_xml.Dom.attr k s) v)
      [
        ("name", e.name);
        ("id", e.id);
        ("type", e.type_ref);
        ("extends", (match e.extends with [] -> None | l -> Some (String.concat " " l)));
      ]
  in
  let unit_attrs (k, v) =
    (* re-emit metric_unit companions for quantities *)
    match v with
    | Quantity (q, unit_spelling) ->
        let unit_attr_name = if String.equal k "size" then "unit" else k ^ "_unit" in
        [
          Xpdl_xml.Dom.attr k (Fmt.str "%g" (Units.to_unit q unit_spelling));
          Xpdl_xml.Dom.attr unit_attr_name unit_spelling;
        ]
    | _ -> [ Xpdl_xml.Dom.attr k (string_of_value v) ]
  in
  (* Inheritance can leave both an explicit [unit] string (from a param
     declaration) and a quantity whose companion re-emits [unit]; keep the
     first spelling of each attribute name. *)
  let dedupe attrs =
    let seen = Hashtbl.create 8 in
    List.filter
      (fun (a : Xpdl_xml.Dom.attribute) ->
        if Hashtbl.mem seen a.attr_name then false
        else begin
          Hashtbl.add seen a.attr_name ();
          true
        end)
      attrs
  in
  let attrs = dedupe (structural @ List.concat_map unit_attrs e.attrs) in
  {
    Xpdl_xml.Dom.tag = Schema.tag_of_kind e.kind;
    attrs;
    children = List.map (fun c -> Xpdl_xml.Dom.Element (to_xml c)) e.children;
    pos = e.pos;
  }
