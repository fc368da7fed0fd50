(** Static validation of XPDL models against the {!Schema}.

    PDL models everything beyond its fixed blocks as free-form string
    properties, which "can lead to inconsistencies and confusion" (Sec.
    II-C); XPDL's answer is predefined tags and attributes that permit
    static checking.  This module implements those checks on elaborated
    models:

    - required attributes present, identifiers well-formed;
    - interconnect [head]/[tail] endpoints resolve to component ids within
      the enclosing system (Listing 4);
    - instance trees have unique ids per scope;
    - power state machines well-formed ({!Power.validate_state_machine});
    - microbenchmark references ([mb]) resolve to a benchmark or suite;
    - meta-models referenced by [type]/[extends] exist when a lookup is
      supplied. *)

let is_valid_identifier s =
  String.length s > 0
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true | _ -> false)
       s

(* What one walk of the tree gathers for the structural checks, each
   check's diagnostics in document order. *)
type walked = {
  identifiers : Diagnostic.t list;  (* XPDL201: ill-formed name or id *)
  required : Diagnostic.t list;  (* XPDL202: missing required attribute *)
  unique_ids : Diagnostic.t list;  (* XPDL203: duplicate sibling id *)
  endpoints : Diagnostic.t list;  (* XPDL204: dangling interconnect endpoint *)
  parts : Model.element list;  (* the power-model parts, for Power.of_parts *)
  names : (string, unit) Hashtbl.t;  (* every name defined, when asked for *)
}

(* One preorder walk.  Ids must be unique among siblings of the same
   scope (global uniqueness is a repository concern; within an instance
   tree, expanded groups make path-scoped uniqueness the right notion).
   Interconnect [head]/[tail] endpoints must name the id (else the name)
   of an element of the closest enclosing system — of the root, for a
   stand-alone fragment; an interconnect inside nested systems is checked
   against each.  Elements are numbered in preorder so that a system is a
   span of numbers and the endpoints are resolved after the walk. *)
let walk ?(names = false) (root : Model.element) : walked =
  let identifiers = ref [] and required = ref [] and unique_ids = ref [] and parts = ref [] in
  let defined = Hashtbl.create (if names then 64 else 1) in
  (* (identifier, preorder number), the systems' spans in document
     order, and the interconnects with their numbers, all reversed *)
  let keys = ref [] and systems = ref [] and interconnects = ref [] in
  let count = ref 0 in
  let check_identifier (e : Model.element) = function
    | Some ident when not (is_valid_identifier ident) ->
        identifiers :=
          Diagnostic.error ~code:"XPDL201" ~pos:e.pos "ill-formed identifier %S on <%s>" ident
            (Schema.tag_of_kind e.kind)
          :: !identifiers
    | Some _ | None -> ()
  in
  let check_unique_children (e : Model.element) =
    match e.children with
    | [] | [ _ ] -> ()
    | children ->
        let seen = Hashtbl.create 8 in
        List.iter
          (fun (c : Model.element) ->
            match c.id with
            | Some ident ->
                if Hashtbl.mem seen ident then
                  unique_ids :=
                    Diagnostic.error ~code:"XPDL203" ~pos:c.pos "duplicate id %S within <%s>" ident
                      (Schema.tag_of_kind e.kind)
                    :: !unique_ids
                else Hashtbl.add seen ident ()
            | None -> ())
          children
  in
  let rec visit (e : Model.element) =
    let number = !count in
    incr count;
    check_identifier e e.name;
    check_identifier e e.id;
    List.iter
      (fun (spec : Schema.attr_spec) ->
        if Model.attr e spec.a_name = None then
          required :=
            Diagnostic.error ~code:"XPDL202" ~pos:e.pos "<%s> is missing required attribute %S"
              (Schema.tag_of_kind e.kind) spec.a_name
            :: !required)
      (Schema.required_attrs e.kind);
    check_unique_children e;
    (match (e.id, e.name) with
    | Some k, _ | None, Some k -> keys := (k, number) :: !keys
    | None, None -> ());
    (match e.name with Some n when names -> Hashtbl.replace defined n () | _ -> ());
    if Power.is_part e.kind then parts := e :: !parts;
    (match e.kind with
    | Schema.Interconnect -> interconnects := (number, e) :: !interconnects
    | _ -> ());
    match e.kind with
    | Schema.System ->
        let span = (number, ref 0) in
        systems := span :: !systems;
        List.iter visit e.children;
        snd span := !count
    | _ -> List.iter visit e.children
  in
  visit root;
  let endpoints =
    match !interconnects with
    | [] -> []
    | reversed ->
        let interconnects = List.rev reversed in
        let endpoint (e : Model.element) key = Model.attr_string e key in
        (* the preorder numbers of the elements an endpoint names *)
        let named = Hashtbl.create 16 in
        List.iter
          (fun (_, e) ->
            List.iter
              (fun key -> Option.iter (fun k -> Hashtbl.replace named k []) (endpoint e key))
              [ "head"; "tail" ])
          interconnects;
        List.iter
          (fun (k, number) ->
            match Hashtbl.find_opt named k with
            | Some numbers -> Hashtbl.replace named k (number :: numbers)
            | None -> ())
          !keys;
        let scopes =
          match !systems with
          | [] -> [ (0, !count) ]
          | spans -> List.rev_map (fun (first, stop) -> (first, !stop)) spans
        in
        List.concat_map
          (fun (first, stop) ->
            let within number = first <= number && number < stop in
            List.concat_map
              (fun (number, (e : Model.element)) ->
                if not (within number) then []
                else
                  List.filter_map
                    (fun key ->
                      match endpoint e key with
                      | Some k when not (List.exists within (Hashtbl.find named k)) ->
                          Some
                            (Diagnostic.error ~code:"XPDL204" ~pos:e.pos
                               "interconnect %s: %s endpoint %S does not name a component in this system"
                               (Option.value ~default:"?" (Model.identifier e))
                               key k)
                      | _ -> None)
                    [ "head"; "tail" ])
              interconnects)
          scopes
  in
  {
    identifiers = List.rev !identifiers;
    required = List.rev !required;
    unique_ids = List.rev !unique_ids;
    endpoints;
    parts = List.rev !parts;
    names = defined;
  }

let check_identifiers root = (walk root).identifiers
let check_required_attrs root = (walk root).required
let check_unique_ids root = (walk root).unique_ids
let check_interconnect_endpoints root = (walk root).endpoints

(* The two power checks read one extracted power model; {!run} extracts
   it once for both. *)
let power_model_diags (pm : Power.t) = List.concat_map Power.validate_state_machine pm.pm_machines

let microbenchmark_ref_diags (pm : Power.t) =
  let diags = ref [] in
  let suite_ids = List.map (fun s -> s.Power.su_id) pm.pm_suites in
  let bench_ids = List.concat_map (fun s -> List.map (fun b -> b.Power.mb_id) s.Power.su_benches) pm.pm_suites in
  List.iter
    (fun isa ->
      (match isa.Power.isa_default_mb with
      | Some mb when (not (List.mem mb suite_ids)) && not (List.mem mb bench_ids) ->
          diags :=
            Diagnostic.warning ~code:"XPDL207" "instruction set %s references unknown microbenchmark suite %S"
              isa.Power.isa_name mb
            :: !diags
      | _ -> ());
      List.iter
        (fun i ->
          match i.Power.in_mb with
          | Some mb when (not (List.mem mb bench_ids)) && not (List.mem mb suite_ids) ->
              diags :=
                Diagnostic.warning ~code:"XPDL207" "instruction %s references unknown microbenchmark %S"
                  i.Power.in_name mb
                :: !diags
          | _ -> ())
        isa.Power.isa_instructions)
    pm.pm_isas;
  List.rev !diags

let check_power_models root = power_model_diags (Power.of_element root)
let check_microbenchmark_refs root = microbenchmark_ref_diags (Power.of_element root)

(* When a lookup into the repository is available, referenced meta-models
   must exist: defined in the tree itself or found by [lookup]. *)
let reference_diags lookup (root : Model.element) referenced (defined : (string, unit) Hashtbl.t) =
  List.filter_map
    (fun name ->
      if Hashtbl.mem defined name || lookup name <> None then None
      else Some (Diagnostic.error ~code:"XPDL208" ~pos:root.pos "unresolved meta-model reference %S" name))
    referenced

let check_references ?(lookup : Inheritance.lookup option) (root : Model.element) =
  match lookup with
  | None -> []
  | Some lookup -> (
      match Model.referenced_types root with
      | [] -> []
      | referenced -> reference_diags lookup root referenced (walk ~names:true root).names)

(** Run every check: one walk of the tree, then the checks that read
    what it gathered, their diagnostics grouped by check. *)
let run ?lookup (root : Model.element) : Diagnostic.t list =
  let referenced = match lookup with Some _ -> Model.referenced_types root | None -> [] in
  let w = walk ~names:(referenced <> []) root in
  let pm = Power.of_parts ~root w.parts in
  let references =
    match lookup with Some lookup -> reference_diags lookup root referenced w.names | None -> []
  in
  w.identifiers @ w.required @ w.unique_ids @ w.endpoints @ power_model_diags pm
  @ microbenchmark_ref_diags pm @ references
