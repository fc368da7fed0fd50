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

let check_identifiers (root : Model.element) =
  let diags = ref [] in
  let check (e : Model.element) = function
    | Some ident when not (is_valid_identifier ident) ->
        diags :=
          Diagnostic.error ~code:"XPDL201" ~pos:e.pos "ill-formed identifier %S on <%s>" ident
            (Schema.tag_of_kind e.kind)
          :: !diags
    | Some _ | None -> ()
  in
  Model.iter
    (fun (e : Model.element) ->
      check e e.name;
      check e e.id)
    root;
  List.rev !diags

let check_required_attrs (root : Model.element) =
  let diags = ref [] in
  Model.iter
    (fun (e : Model.element) ->
      List.iter
        (fun (spec : Schema.attr_spec) ->
          if spec.a_required && Model.attr e spec.a_name = None then
            diags :=
              Diagnostic.error ~code:"XPDL202" ~pos:e.pos "<%s> is missing required attribute %S"
                (Schema.tag_of_kind e.kind) spec.a_name
              :: !diags)
        (Schema.specific_attrs e.kind))
    root;
  List.rev !diags

(* Ids must be unique among siblings of the same scope (global uniqueness
   is a repository concern; within an instance tree, expanded groups make
   path-scoped uniqueness the right notion). *)
let check_unique_ids (root : Model.element) =
  let diags = ref [] in
  let check_scope (e : Model.element) =
    match e.children with
    | [] | [ _ ] -> ()
    | children ->
        let seen = Hashtbl.create 8 in
        List.iter
          (fun (c : Model.element) ->
            match c.id with
            | Some ident ->
                if Hashtbl.mem seen ident then
                  diags :=
                    Diagnostic.error ~code:"XPDL203" ~pos:c.pos "duplicate id %S within <%s>" ident
                      (Schema.tag_of_kind e.kind)
                    :: !diags
                else Hashtbl.add seen ident ()
            | None -> ())
          children
  in
  Model.iter check_scope root;
  List.rev !diags

(* head/tail of interconnect instances must name components reachable in
   the same system/node scope. *)
let check_interconnect_endpoints (root : Model.element) =
  let diags = ref [] in
  (* every id and name in the scope, built on the scope's first
     interconnect *)
  let ids_in scope =
    let known = Hashtbl.create 64 in
    Model.iter
      (fun (e : Model.element) ->
        match (e.id, e.name) with
        | Some i, _ | None, Some i -> Hashtbl.replace known i ()
        | None, None -> ())
      scope;
    known
  in
  let check_in_scope (scope : Model.element) =
    let known = lazy (ids_in scope) in
    Model.iter
      (fun (e : Model.element) ->
        if e.kind = Schema.Interconnect then
          List.iter
            (fun key ->
              match Model.attr_string e key with
              | Some endpoint when not (Hashtbl.mem (Lazy.force known) endpoint) ->
                  diags :=
                    Diagnostic.error ~code:"XPDL204" ~pos:e.pos
                      "interconnect %s: %s endpoint %S does not name a component in this system"
                      (Option.value ~default:"?" (Model.identifier e))
                      key endpoint
                    :: !diags
              | _ -> ())
            [ "head"; "tail" ])
      scope
  in
  (* endpoints are resolved within the closest enclosing system; for
     stand-alone fragments, within the root *)
  let systems = Model.elements_of_kind Schema.System root in
  (match systems with [] -> check_in_scope root | _ -> List.iter check_in_scope systems);
  List.rev !diags

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
   must exist. *)
let check_references ?(lookup : Inheritance.lookup option) (root : Model.element) =
  match lookup with
  | None -> []
  | Some lookup -> (
      match Model.referenced_types root with
      | [] -> []
      | referenced ->
          (* one set of the names defined in the tree, not a walk per
             reference *)
          let defined = Hashtbl.create 64 in
          Model.iter
            (fun (e : Model.element) ->
              match e.name with Some n -> Hashtbl.replace defined n () | None -> ())
            root;
          List.filter_map
            (fun name ->
              if Hashtbl.mem defined name || lookup name <> None then None
              else
                Some
                  (Diagnostic.error ~code:"XPDL208" ~pos:root.pos
                     "unresolved meta-model reference %S" name))
            referenced)

(** Run every check.  [lookup] enables cross-descriptor reference checks. *)
let run ?lookup (root : Model.element) : Diagnostic.t list =
  let pm = Power.of_element root in
  check_identifiers root
  @ check_required_attrs root
  @ check_unique_ids root
  @ check_interconnect_endpoints root
  @ power_model_diags pm
  @ microbenchmark_ref_diags pm
  @ check_references ?lookup root
