(** Typed views of XPDL power models (Sec. III-C): power domains, power
    state machines, instruction energy tables and microbenchmark suites,
    extracted from generic {!Model} elements.  All values SI-normalized
    (Hz, W, J, s). *)

(** One power state: an abstract DVFS/shutdown level (P/C state). *)
type power_state = {
  ps_name : string;
  ps_frequency : float;  (** Hz; 0 for pure sleep states *)
  ps_power : float;  (** W, static power at this state *)
}

(** A legal transition between power states with its switching costs. *)
type transition = {
  tr_from : string;
  tr_to : string;
  tr_time : float;  (** s *)
  tr_energy : float;  (** J *)
}

type state_machine = {
  sm_name : string;
  sm_domain : string option;  (** the [power_domain] it governs *)
  sm_states : power_state list;
  sm_transitions : transition list;
}

(** The [switchoffCondition="<group> off"] of Listing 12. *)
type switchoff_condition = { requires_group : string; required_state : [ `Off | `On ] }

(** A power domain/island: components switched together. *)
type domain = {
  pd_name : string;
  pd_switchable : bool;  (** [enableSwitchOff]; the main domain is [false] *)
  pd_condition : switchoff_condition option;
  pd_idle_power : float option;  (** W while powered but idle *)
  pd_members : Model.element list;  (** member selectors *)
}

(** Dynamic energy specification of one instruction (Listing 14). *)
type instruction_energy =
  | Fixed of float  (** J per instruction, given in-line *)
  | By_frequency of (float * float) list  (** sorted (Hz, J) table *)
  | To_benchmark  (** ["?"]: derive by microbenchmarking at deployment *)

type instruction = {
  in_name : string;
  in_energy : instruction_energy;
  in_mb : string option;  (** microbenchmark id that measures it *)
  in_latency : int option;  (** cycles *)
  in_throughput : float option;  (** instructions/cycle *)
}

type isa = {
  isa_name : string;
  isa_default_mb : string option;
  isa_instructions : instruction list;
}

(** One microbenchmark of a suite (Listing 15). *)
type microbenchmark = {
  mb_id : string;
  mb_instruction : string;  (** instruction measured (the [type]) *)
  mb_file : string option;
  mb_cflags : string option;
  mb_lflags : string option;
  mb_iterations : int;
}

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

val extract_domain : Model.element -> domain

(** Domains of a [<power_domains>] subtree, descending through groups. *)
val extract_domains : Model.element -> domain list

val extract_state_machine : Model.element -> state_machine
val extract_isa : Model.element -> isa
val extract_suite : Model.element -> suite

(** Extract every power-modeling structure present in the subtree. *)
val of_element : Model.element -> t

(** The element kinds a power model is extracted from:
    [<power_domains>], [<power_state_machine>], [<instructions>] and
    [<microbenchmarks>]. *)
val is_part : Schema.kind -> bool

(** [of_parts ~root parts] is [of_element root] when [parts] lists, in
    document order, every element of [root]'s subtree whose kind
    satisfies {!is_part} — for a caller that walks the tree anyway. *)
val of_parts : root:Model.element -> Model.element list -> t

(** Internal consistency of a state machine: duplicate states, dangling
    transition endpoints, negative costs, unreachable states. *)
val validate_state_machine : state_machine -> Diagnostic.t list

val find_state : state_machine -> string -> power_state option
val find_transition : state_machine -> from_state:string -> to_state:string -> transition option

(** Instructions whose energy must be derived by microbenchmarking. *)
val unresolved_instructions : isa -> instruction list

(** Energy of one execution at clock [hz]: fixed values as-is, frequency
    tables interpolated linearly and clamped; [None] for
    [To_benchmark]. *)
val instruction_energy_at : instruction -> hz:float -> float option
