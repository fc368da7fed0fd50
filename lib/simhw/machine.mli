(** The simulated target machine: stands in for the physical EXCESS
    platforms.  Built from a composed XPDL model, it executes instruction
    workloads on its cores, transfers data over its interconnects, and
    exposes a simulated external power meter.  All observations are
    seeded-noisy measurements of the hidden {!Truth} model. *)

open Xpdl_core

type core = {
  core_ident : string;  (** path-like unique id *)
  core_element : Model.element;
  mutable hz : float;  (** current clock (DVFS state) *)
  nominal_hz : float;
  isa : string option;
  mutable core_offline : bool;  (** dropped by a fault plan; refuses work *)
}

type link = {
  link_ident : string;
  head : string option;
  tail : string option;
  bandwidth : float;  (** B/s *)
  time_offset : float;  (** s per message *)
  energy_per_byte : float;  (** J/B *)
  energy_offset : float;  (** J per message *)
}

type t = {
  model : Model.element;
  cores : core array;
  links : link array;
  truth : Truth.t;
  static_power : float;  (** W, whole machine, all domains on *)
  mem_access_energy : float;  (** J per (cache-missing) memory access *)
  mem_access_time : float;  (** s per memory access *)
  rng : Rng.t;
  mutable faults : Faults.plan option;  (** attached fault-injection plan *)
  latencies : (string, int) Hashtbl.t;
      (** instruction → declared latency in cycles, extracted once by
          {!create}: the first ISA in model order that declares the
          instruction with a latency gives it.  Instructions absent here
          get {!Truth.latency_cycles}' synthesized value. *)
  power : Power.t;
      (** the power model of [model], extracted once by {!create}; a
          bootstrap over the same model reads it through {!power_model}
          instead of extracting it again *)
}

(** Sum of declared [static_power] over all physical hardware. *)
val total_static_power : Model.element -> float

(** Build a simulated machine.  [seed] fixes the noise stream;
    [noise_sigma] is the relative meter noise (default 2%). *)
val create : ?seed:int -> ?noise_sigma:float -> Model.element -> t

val core_count : t -> int

(** The power model of [model]: the machine's own [power] when the
    machine was built from this very model (physical equality), a fresh
    {!Power.of_element} otherwise. *)
val power_model : t -> Model.element -> Power.t

(** {1 Fault injection}

    With a {!Faults.plan} attached, every meter reading (instruction
    runs, transfers, idle-power samples) passes through the plan: it may
    come back NaN, wildly off, stuck at a stale value, raise
    {!Faults.Meter_timeout}, or — once the plan decides — take a core
    offline, after which {!run} on that core raises
    {!Faults.Core_offline}.  Without a plan behavior is unchanged. *)

val inject_faults : t -> Faults.plan -> unit
val faults : t -> Faults.plan option

(** Find a core by its full path identifier or basename. *)
val find_core : t -> string -> core option

val find_link : t -> string -> link option

(** Set the clock of every core whose path contains [within] (all cores
    when omitted) — the effect of a DVFS power-state switch. *)
val set_frequency : ?within:string -> t -> float -> unit

(** Return every core to its nominal clock, undoing {!set_frequency}
    (a bootstrap's frequency sweep ends with this). *)
val restore_nominal_clocks : t -> unit

(** A workload: a bag of instruction executions plus memory traffic. *)
type workload = {
  instructions : (string * int) list;  (** instruction name → count *)
  memory_accesses : int;  (** cache-missing accesses *)
  parallel_fraction : float;  (** Amdahl fraction that scales with cores *)
}

val workload :
  ?memory_accesses:int -> ?parallel_fraction:float -> (string * int) list -> workload

(** Result of a run, as observed through the simulated power meter. *)
type measurement = {
  elapsed : float;  (** s, wall-clock of the run *)
  dynamic_energy : float;  (** J attributed to the computation *)
  total_energy : float;  (** J including the machine's static share *)
  average_power : float;  (** W over the run *)
}

(** Execute on the core identified by [core] (default: first core);
    [cores_used] spreads the parallel fraction (Amdahl).  Pricing a run
    costs O(instructions in the workload), independent of the size of
    the model: declared latencies come from [latencies], not from a
    walk of the model.  Raises
    [Invalid_argument] on an unknown core or a core-less machine,
    [Faults.Core_offline] on a core a fault plan took down, and
    [Faults.Meter_timeout] on a hung meter read. *)
val run : ?core:string -> ?cores_used:int -> t -> workload -> measurement

(** Transfer [bytes] over a link: noisy (time, energy).  Raises
    [Invalid_argument] on an unknown link. *)
val transfer : t -> link:string -> bytes:int -> float * float

(** Sample the external power meter while the machine idles. *)
val sample_idle_power : t -> duration:float -> float
