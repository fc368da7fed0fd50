(** Control relations and abstract platform patterns (Sec. II).

    The paper argues that the control relation (PDL's Master / Hybrid /
    Worker hierarchy) should not be the overarching structure of a
    platform description, but that XPDL "should still allow the
    definition of abstract platform (i.e., generic control hierarchy)
    patterns ... as a secondary aspect to a more architecture oriented
    structural specification", with control relations "optionally
    model[ed] separately (referencing the involved hardware entities)" or
    inferred "from the hardware entities alone" where possible.

    This module implements that secondary aspect:

    - {!derive} infers a control hierarchy from a composed model:
      explicit [role] attributes win (Listing 4's
      [<cpu id="myriad_host" role="master"/>]); otherwise CPUs default
      to control-capable and devices to workers.  A dual-CPU system gets
      hybrid CPUs under a synthetic root, reflecting the paper's point
      that a unique Master is often a fiction of the programming model.
    - {!matches} checks a concrete platform against an abstract pattern
      (counts and type constraints per role), and {!assign} instantiates
      the pattern by binding its role slots to concrete hardware. *)

type role = Master | Hybrid | Worker

let role_name = function Master -> "master" | Hybrid -> "hybrid" | Worker -> "worker"
let pp_role ppf r = Fmt.string ppf (role_name r)

type pu = {
  cu_ident : string;
  cu_role : role;
  cu_element : Model.element;
  cu_explicit : bool;  (** role came from a [role] attribute *)
}

type tree = {
  ct_root : pu;  (** the Master (possibly synthetic for multi-master) *)
  ct_children : pu list;  (** hybrids and workers controlled by the root *)
}

let role_of_string = function
  | "master" -> Some Master
  | "hybrid" -> Some Hybrid
  | "worker" -> Some Worker
  | _ -> None

let declared_role (e : Model.element) =
  Option.bind (Model.attr_string e "role") role_of_string

(* Control-relevant hardware: CPUs and devices directly reachable outside
   other devices (a device's internal CPU is not independently
   launchable). *)
let processing_units (root : Model.element) : Model.element list =
  let acc = ref [] in
  let rec walk ~inside_device (e : Model.element) =
    if Model.is_metadata_subtree e.Model.kind then ()
    else begin
      (match e.Model.kind with
      | Schema.Cpu when not inside_device -> acc := e :: !acc
      | Schema.Device when not inside_device -> acc := e :: !acc
      | _ -> ());
      let inside_device = inside_device || Schema.equal_kind e.Model.kind Schema.Device in
      List.iter (walk ~inside_device) e.Model.children
    end
  in
  walk ~inside_device:false root;
  List.rev !acc

exception Control_error of string

(** Derive the control hierarchy of a composed system.  Raises
    {!Control_error} only if the model contains no processing unit. *)
let derive (root : Model.element) : tree =
  let pus = processing_units root in
  if pus = [] then raise (Control_error "model has no processing units");
  let classified =
    List.mapi
      (fun i (e : Model.element) ->
        let ident =
          match Model.identifier e with
          | Some x -> x
          | None -> Fmt.str "%s%d" (Schema.tag_of_kind e.Model.kind) i
        in
        match declared_role e with
        | Some r -> { cu_ident = ident; cu_role = r; cu_element = e; cu_explicit = true }
        | None ->
            let r =
              match e.Model.kind with Schema.Device -> Worker | _ -> Hybrid
            in
            { cu_ident = ident; cu_role = r; cu_element = e; cu_explicit = false })
      pus
  in
  let masters, others = List.partition (fun p -> p.cu_role = Master) classified in
  match masters with
  | [ m ] -> { ct_root = m; ct_children = others }
  | [] -> (
      (* no explicit master: promote a lone control-capable CPU, else keep
         everyone hybrid under a synthetic root (the dual-CPU case) *)
      let cpus = List.filter (fun p -> Schema.equal_kind p.cu_element.Model.kind Schema.Cpu) classified in
      match cpus with
      | [ cpu ] ->
          let m = { cpu with cu_role = Master } in
          { ct_root = m; ct_children = List.filter (fun p -> p.cu_ident <> cpu.cu_ident) classified }
      | _ ->
          let synthetic =
            {
              cu_ident = "runtime_system";
              cu_role = Master;
              cu_element = root;
              cu_explicit = false;
            }
          in
          { ct_root = synthetic; ct_children = classified })
  | _ :: _ :: _ ->
      (* several explicit masters: the runtime system arbitrates *)
      let synthetic =
        { cu_ident = "runtime_system"; cu_role = Master; cu_element = root; cu_explicit = false }
      in
      { ct_root = synthetic; ct_children = classified }

let workers t = List.filter (fun p -> p.cu_role = Worker) t.ct_children
let hybrids t = List.filter (fun p -> p.cu_role = Hybrid) t.ct_children

let pp_tree ppf t =
  Fmt.pf ppf "@[<v 2>%s (master%s)" t.ct_root.cu_ident
    (if t.ct_root.cu_explicit then "" else ", inferred");
  List.iter
    (fun p -> Fmt.pf ppf "@,+- %s (%a%s)" p.cu_ident pp_role p.cu_role
        (if p.cu_explicit then "" else ", inferred"))
    t.ct_children;
  Fmt.pf ppf "@]"

(** {1 Abstract platform patterns}

    A pattern constrains the shape of the control hierarchy — PDL's
    platform patterns, recast as predicates over the derived (or
    explicitly specified) control relation plus hardware types. *)

type slot_constraint = {
  sc_role : role;
  sc_min : int;
  sc_max : int option;
  sc_type_affix : string option;
      (** substring the PU's [type] reference (or kind tag) must contain *)
}

type pattern = { pat_name : string; pat_slots : slot_constraint list }

let slot ?(min = 1) ?max ?type_affix role =
  { sc_role = role; sc_min = min; sc_max = max; sc_type_affix = type_affix }

(** Canonical patterns from the heterogeneous-computing literature. *)
let host_accelerator : pattern =
  { pat_name = "host_accelerator"; pat_slots = [ slot Master; slot Worker ] }

let symmetric_multicore : pattern =
  {
    pat_name = "symmetric_multicore";
    pat_slots = [ slot Master; slot ~min:0 ~max:0 Worker; slot ~min:0 ~max:0 Hybrid ];
  }

let multi_gpu_node : pattern =
  {
    pat_name = "multi_gpu_node";
    pat_slots = [ slot Master; slot ~min:2 ~type_affix:"Nvidia" Worker ];
  }

(** Host plus self-scheduling coprocessors (Xeon Phi class). *)
let host_coprocessor : pattern =
  { pat_name = "host_coprocessor"; pat_slots = [ slot Master; slot Hybrid ] }

let contains_affix ~affix s =
  let al = String.length affix and sl = String.length s in
  let rec go i = i + al <= sl && (String.sub s i al = affix || go (i + 1)) in
  go 0

let pu_matches_constraint (c : slot_constraint) (p : pu) =
  p.cu_role = c.sc_role
  &&
  match c.sc_type_affix with
  | None -> true
  | Some affix -> (
      match p.cu_element.Model.type_ref with
      | Some t -> contains_affix ~affix t
      | None -> contains_affix ~affix (Schema.tag_of_kind p.cu_element.Model.kind))

(** Bind each pattern slot to the concrete PUs satisfying it; [None] if
    any slot's multiplicity cannot be met. *)
let assign (pat : pattern) (t : tree) : (slot_constraint * pu list) list option =
  let all = t.ct_root :: t.ct_children in
  let bindings =
    List.map (fun c -> (c, List.filter (pu_matches_constraint c) all)) pat.pat_slots
  in
  let ok =
    List.for_all
      (fun ((c : slot_constraint), pus) ->
        let n = List.length pus in
        n >= c.sc_min && match c.sc_max with Some m -> n <= m | None -> true)
      bindings
  in
  if ok then Some bindings else None

(** Does the platform instantiate the pattern? *)
let matches pat t = assign pat t <> None

(** The most specific canonical pattern the platform matches, if any. *)
let classify (t : tree) : pattern option =
  List.find_opt (fun p -> matches p t)
    [ multi_gpu_node; host_accelerator; host_coprocessor; symmetric_multicore ]
