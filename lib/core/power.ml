(** Typed views of XPDL power models (Sec. III-C).

    A power model consists of power domains, their power state machines,
    instruction energy tables, and microbenchmark suites with deployment
    information.  This module extracts those structures from generic
    {!Model} elements into records the energy library ({!Xpdl_energy}),
    microbenchmark harness ({!Xpdl_microbench}) and simulator
    ({!Xpdl_simhw}) consume.  All values are SI-normalized (Hz, W, J, s). *)

open Xpdl_units

(** One power state of a power state machine: an abstract DVFS/shutdown
    level (P/C state, Listing 13). *)
type power_state = {
  ps_name : string;
  ps_frequency : float;  (** Hz; 0 for pure sleep states *)
  ps_power : float;  (** W, static power at this state *)
}

(** A legal transition between power states with its switching costs. *)
type transition = {
  tr_from : string;  (** [head] *)
  tr_to : string;  (** [tail] *)
  tr_time : float;  (** s *)
  tr_energy : float;  (** J *)
}

(** A power state machine attached to a power domain. *)
type state_machine = {
  sm_name : string;
  sm_domain : string option;  (** [power_domain] it governs *)
  sm_states : power_state list;
  sm_transitions : transition list;
}

(** The [switchoffCondition="<group> off"] of Listing 12. *)
type switchoff_condition = { requires_group : string; required_state : [ `Off | `On ] }

(** A power domain/island: components switched together (Sec. III-C). *)
type domain = {
  pd_name : string;
  pd_switchable : bool;  (** [enableSwitchOff]; the main domain is [false] *)
  pd_condition : switchoff_condition option;
  pd_idle_power : float option;  (** W while the island is powered but idle *)
  pd_members : Model.element list;  (** hardware components in the island *)
}

(** Dynamic energy specification of one instruction (Listing 14). *)
type instruction_energy =
  | Fixed of float  (** J per instruction, given in-line *)
  | By_frequency of (float * float) list
      (** (frequency Hz, energy J) table, e.g. the [divsd] rows *)
  | To_benchmark  (** ["?"]: derive by microbenchmarking at deployment *)

type instruction = {
  in_name : string;
  in_energy : instruction_energy;
  in_mb : string option;  (** microbenchmark id that measures it *)
  in_latency : int option;  (** cycles *)
  in_throughput : float option;  (** instructions/cycle *)
}

(** An instruction set with energy metadata ([<instructions>]). *)
type isa = {
  isa_name : string;
  isa_default_mb : string option;  (** suite-level [mb] reference *)
  isa_instructions : instruction list;
}

(** One microbenchmark of a suite (Listing 15). *)
type microbenchmark = {
  mb_id : string;
  mb_instruction : string;  (** the [type] attribute: instruction measured *)
  mb_file : string option;
  mb_cflags : string option;
  mb_lflags : string option;
  mb_iterations : int;  (** default iteration count for the driver *)
}

(** A microbenchmark suite with its deployment script info. *)
type suite = {
  su_id : string;
  su_instruction_set : string option;
  su_path : string option;
  su_command : string option;
  su_benches : microbenchmark list;
}

(** A complete power model. *)
type t = {
  pm_name : string option;
  pm_domains : domain list;
  pm_machines : state_machine list;
  pm_isas : isa list;
  pm_suites : suite list;
}

(** {1 Extraction from model elements} *)

let quantity_or e key default =
  match Model.attr_quantity e key with Some q -> Units.value q | None -> default

let extract_state (e : Model.element) : power_state =
  {
    ps_name = Option.value ~default:"?" (Model.identifier e);
    ps_frequency = quantity_or e "frequency" 0.;
    ps_power = quantity_or e "power" 0.;
  }

let extract_transition (e : Model.element) : transition option =
  match (Model.attr_string e "head", Model.attr_string e "tail") with
  | Some h, Some t ->
      Some
        { tr_from = h; tr_to = t; tr_time = quantity_or e "time" 0.; tr_energy = quantity_or e "energy" 0. }
  | _ -> None

let extract_state_machine (e : Model.element) : state_machine =
  let states =
    List.concat_map
      (fun (c : Model.element) -> Model.elements_of_kind Schema.Power_state c)
      (Model.children_of_kind e Schema.Power_states)
  in
  let transitions =
    List.concat_map
      (fun (c : Model.element) -> Model.elements_of_kind Schema.Transition c)
      (Model.children_of_kind e Schema.Transitions)
  in
  {
    sm_name = Option.value ~default:"?" (Model.identifier e);
    sm_domain = Model.attr_string e "power_domain";
    sm_states = List.map extract_state states;
    sm_transitions = List.filter_map extract_transition transitions;
  }

let parse_switchoff_condition s =
  (* "Shave_pds off" — group name followed by required state *)
  match String.split_on_char ' ' (String.trim s) |> List.filter (fun x -> x <> "") with
  | [ g; "off" ] -> Some { requires_group = g; required_state = `Off }
  | [ g; "on" ] -> Some { requires_group = g; required_state = `On }
  | _ -> None

let extract_domain (e : Model.element) : domain =
  {
    pd_name = Option.value ~default:"?" (Model.identifier e);
    pd_switchable = Option.value ~default:true (Model.attr_bool e "enableSwitchOff");
    pd_condition =
      Option.bind (Model.attr_string e "switchoffCondition") parse_switchoff_condition;
    pd_idle_power = Option.map Units.value (Model.attr_quantity e "idle_power");
    pd_members = List.filter (fun (c : Model.element) -> Schema.is_hardware c.kind) e.children;
  }

let extract_domains (e : Model.element) : domain list =
  (* domains may be grouped (Listing 12 wraps the 8 Shave domains) *)
  let rec collect (x : Model.element) =
    match x.kind with
    | Schema.Power_domain -> [ extract_domain x ]
    | Schema.Group | Schema.Power_domains -> List.concat_map collect x.children
    | _ -> []
  in
  collect e

let extract_instruction (e : Model.element) : instruction =
  let data_rows =
    List.filter_map
      (fun (d : Model.element) ->
        match (Model.attr_quantity d "frequency", Model.attr_quantity d "energy") with
        | Some f, Some en -> Some (Units.value f, Units.value en)
        | _ -> None)
      (Model.children_of_kind e Schema.Data)
  in
  let energy =
    if data_rows <> [] then By_frequency (List.sort compare data_rows)
    else
      match Model.attr e "energy" with
      | Some (Model.Quantity (q, _)) -> Fixed (Units.value q)
      | Some Model.Unknown | None -> To_benchmark
      | Some _ -> To_benchmark
  in
  {
    in_name = Option.value ~default:"?" (Model.identifier e);
    in_energy = energy;
    in_mb = Model.attr_string e "mb";
    in_latency = Model.attr_int e "latency";
    in_throughput = Model.attr_float e "throughput";
  }

let extract_isa (e : Model.element) : isa =
  {
    isa_name = Option.value ~default:"?" (Model.identifier e);
    isa_default_mb = Model.attr_string e "mb";
    isa_instructions =
      List.map extract_instruction (Model.children_of_kind e Schema.Instruction);
  }

let extract_microbenchmark (e : Model.element) : microbenchmark =
  {
    mb_id = Option.value ~default:"?" (Model.identifier e);
    mb_instruction =
      Option.value ~default:"?"
        (match e.Model.type_ref with Some t -> Some t | None -> Model.attr_string e "type");
    mb_file = Model.attr_string e "file";
    mb_cflags = Model.attr_string e "cflags";
    mb_lflags = Model.attr_string e "lflags";
    mb_iterations = Option.value ~default:1000 (Model.attr_int e "iterations");
  }

let extract_suite (e : Model.element) : suite =
  {
    su_id = Option.value ~default:"?" (Model.identifier e);
    su_instruction_set = Model.attr_string e "instruction_set";
    su_path = Model.attr_string e "path";
    su_command = Model.attr_string e "command";
    su_benches = List.map extract_microbenchmark (Model.children_of_kind e Schema.Microbenchmark);
  }

(* The four element kinds a power model is extracted from. *)
let is_part = function
  | Schema.Power_domains | Schema.Power_state_machine | Schema.Instructions
  | Schema.Microbenchmarks ->
      true
  | _ -> false

(** The power model of [root] from its power-model elements in document
    order, as a caller's own walk of [root] collected them. *)
let of_parts ~(root : Model.element) (parts : Model.element list) : t =
  let extract kind f =
    List.filter_map
      (fun (p : Model.element) -> if Schema.equal_kind p.kind kind then Some (f p) else None)
      parts
  in
  {
    pm_name = Model.identifier root;
    pm_domains = List.concat (extract Schema.Power_domains extract_domains);
    pm_machines = extract Schema.Power_state_machine extract_state_machine;
    pm_isas = extract Schema.Instructions extract_isa;
    pm_suites = extract Schema.Microbenchmarks extract_suite;
  }

(** Extract every power-modeling structure present in the subtree of [e]
    (power models may be referenced from CPUs or stand alone), in one
    walk. *)
let of_element (e : Model.element) : t =
  of_parts ~root:e
    (List.rev
       (Model.fold (fun acc (x : Model.element) -> if is_part x.kind then x :: acc else acc) [] e))

(** {1 Well-formedness of state machines}

    The paper requires that a power state machine "must model all possible
    transitions (switchings) between states that the programmer can
    initiate"; we check the machine is internally consistent. *)

let validate_state_machine (sm : state_machine) : Diagnostic.t list =
  let diags = ref [] in
  let state_names = List.map (fun s -> s.ps_name) sm.sm_states in
  let dup =
    List.filter
      (fun n -> List.length (List.filter (String.equal n) state_names) > 1)
      state_names
  in
  (match dup with
  | [] -> ()
  | n :: _ ->
      diags := Diagnostic.error ~code:"XPDL205" "power state machine %s: duplicate state %S" sm.sm_name n :: !diags);
  List.iter
    (fun tr ->
      List.iter
        (fun endpoint ->
          if not (List.mem endpoint state_names) then
            diags :=
              Diagnostic.error ~code:"XPDL205" "power state machine %s: transition references unknown state %S"
                sm.sm_name endpoint
              :: !diags)
        [ tr.tr_from; tr.tr_to ];
      if tr.tr_time < 0. || tr.tr_energy < 0. then
        diags :=
          Diagnostic.error ~code:"XPDL205" "power state machine %s: negative transition cost %s->%s" sm.sm_name
            tr.tr_from tr.tr_to
          :: !diags)
    sm.sm_transitions;
  (* reachability from the first (initial) state *)
  (match sm.sm_states with
  | [] -> diags := Diagnostic.error ~code:"XPDL205" "power state machine %s has no states" sm.sm_name :: !diags
  | init :: _ ->
      let reachable = Hashtbl.create 8 in
      let rec dfs n =
        if not (Hashtbl.mem reachable n) then begin
          Hashtbl.add reachable n ();
          List.iter (fun tr -> if String.equal tr.tr_from n then dfs tr.tr_to) sm.sm_transitions
        end
      in
      dfs init.ps_name;
      List.iter
        (fun s ->
          if not (Hashtbl.mem reachable s.ps_name) then
            diags :=
              Diagnostic.warning ~code:"XPDL206" "power state machine %s: state %S unreachable from %S" sm.sm_name
                s.ps_name init.ps_name
              :: !diags)
        sm.sm_states);
  List.rev !diags

(** Find a state by name. *)
let find_state sm name = List.find_opt (fun s -> String.equal s.ps_name name) sm.sm_states

(** Direct transition between two states, if modeled. *)
let find_transition sm ~from_state ~to_state =
  List.find_opt
    (fun tr -> String.equal tr.tr_from from_state && String.equal tr.tr_to to_state)
    sm.sm_transitions

(** Instructions whose energy must be derived by microbenchmarking. *)
let unresolved_instructions (isa : isa) =
  List.filter (fun i -> match i.in_energy with To_benchmark -> true | _ -> false)
    isa.isa_instructions

(** Energy of [i] at clock frequency [hz], interpolating frequency tables
    linearly and clamping outside the table range. *)
let instruction_energy_at (i : instruction) ~(hz : float) : float option =
  match i.in_energy with
  | Fixed e -> Some e
  | To_benchmark -> None
  | By_frequency [] -> None
  | By_frequency ((f0, e0) :: _ as rows) ->
      if hz <= f0 then Some e0
      else
        let rec interp = function
          | [ (_, e) ] -> e
          | (f1, e1) :: ((f2, e2) :: _ as rest) ->
              if hz <= f2 then e1 +. ((e2 -. e1) *. (hz -. f1) /. (f2 -. f1)) else interp rest
          | [] -> assert false
        in
        Some (interp rows)
