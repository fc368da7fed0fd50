(** The XPDL processing tool: the end-to-end static pipeline of Sec. IV —
    browse + parse the repository, compose, static analysis, driver
    generation, microbenchmark bootstrap, filtering, runtime-model build
    and serialization.  Each stage is timed. *)

open Xpdl_core

type config = {
  search_path : string list;  (** repository roots *)
  parameter_config : Instantiate.env;  (** deployment-time param choices *)
  run_bootstrap : bool;
  bootstrap_opts : Xpdl_microbench.Bootstrap.options;
  filter_drop : string list;
  emit_drivers_to : string option;  (** directory for generated driver code *)
  machine_seed : int;
}

val default_config : config

type stage_timing = { stage : string; seconds : float }

type report = {
  system : string;
  runtime_model : Ir.t;
  model : Model.element;  (** analyzed, bootstrapped model *)
  diagnostics : Diagnostic.t list;
  link_reports : Analysis.link_report list;
  bootstrap_results : Xpdl_microbench.Bootstrap.result list;
  descriptors_used : string list;
  timings : stage_timing list;
  runtime_model_bytes : int;
}

(** Run the pipeline for the system named [system].  [repo] may be
    supplied pre-loaded to amortize parsing across runs. *)
val run :
  ?config:config -> ?repo:Xpdl_repo.Repo.t -> system:string -> unit -> (report, string) result

(** Run and write the runtime-model file. *)
val run_to_file :
  ?config:config ->
  ?repo:Xpdl_repo.Repo.t ->
  system:string ->
  output:string ->
  unit ->
  (report, string) result

val pp_timings : Format.formatter -> stage_timing list -> unit
