(** Deployment-time bootstrap of the energy model (Sec. III-C, IV): run
    the microbenchmark for every ["?"] energy entry on the target
    platform, reduce repeated meter readings with {!Stats}, and write the
    derived values back into the model (optionally as per-frequency
    [<data>] tables like Listing 14's [divsd]).  Channel offsets declared
    ["?"] (Listing 3) are calibrated with 1-byte transfers. *)

open Xpdl_core

type options = {
  repetitions : int;  (** meter readings per benchmark *)
  frequencies : float list;  (** Hz sweep; [] = current frequency only *)
  force : bool;  (** re-measure even specified energies ("on request") *)
}

(** 9 repetitions, no sweep, no force. *)
val default_options : options

(** One derived energy entry. *)
type result = {
  instruction : string;
  benchmark : string;  (** microbenchmark id used *)
  energy : Stats.summary;  (** J per instruction at the current frequency *)
  per_frequency : (float * float) list;  (** (Hz, J) when a sweep ran *)
  runs : int;
}

(** Measure J/instruction on the machine at its current clocks. *)
val measure :
  Xpdl_simhw.Machine.t -> opts:options -> name:string -> iterations:int -> Stats.summary

(** Adaptive measurement: sample until the 95% CI half-width is within
    [target_rci] of the mean (default 1%) or [max_samples] meter reads
    (default 200) have been drawn; at least 3 samples are taken.
    Non-finite (NaN/inf) readings are rejected and resampled instead of
    poisoning the running statistics; raises [Invalid_argument] if no
    read in the whole budget was finite. *)
val measure_adaptive :
  ?target_rci:float ->
  ?max_samples:int ->
  Xpdl_simhw.Machine.t ->
  name:string ->
  iterations:int ->
  Stats.summary

(** The microbenchmark id measuring an instruction: its own [mb]
    reference, else a suite benchmark matching the instruction, else a
    synthesized [auto_] id. *)
val benchmark_for : Power.suite list -> Power.instruction -> string

(** Declared iteration count of a microbenchmark (default 100_000). *)
val iterations_for : Power.suite list -> string -> int

(** Full bootstrap of a composed model: instruction energies and link
    offsets.  [machine] defaults to a machine built from the model. *)
val run :
  ?opts:options ->
  ?machine:Xpdl_simhw.Machine.t ->
  Model.element ->
  Model.element * result list

(** Instructions still unresolved (empty after a successful bootstrap). *)
val remaining_placeholders : Model.element -> string list
