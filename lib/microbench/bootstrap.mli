(** Deployment-time bootstrap of the energy model (Sec. III-C, IV): run
    the microbenchmark for every ["?"] energy entry on the target
    platform, reduce repeated meter readings with {!Stats}, and write the
    derived values back into the model (optionally as per-frequency
    [<data>] tables like Listing 14's [divsd]).  Channel offsets declared
    ["?"] (Listing 3) are calibrated with 1-byte transfers.

    This is the paper's entry point; the measuring, the write-back and
    the [quality] labels are {!Resilient}'s, run with no fault plan. *)

open Xpdl_core

(** {!Resilient.default_policy} with 9 repetitions per benchmark: no
    sweep, no force. *)
val default_options : Resilient.policy

(** One derived energy entry. *)
type result = {
  instruction : string;
  benchmark : string;  (** microbenchmark id used *)
  energy : Stats.summary;  (** J per instruction at the current frequency *)
  per_frequency : (float * float) list;  (** (Hz, J) when a sweep ran *)
}

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

(** One result per instruction benchmark the engine measured at the
    current clocks, in document order; quarantined benchmarks have none. *)
val results_of_health : Resilient.health -> result list

(** Full bootstrap of a composed model: instruction energies and link
    offsets, through {!Resilient.run}.  [machine] defaults to a machine
    built from the model. *)
val run :
  ?opts:Resilient.policy ->
  ?machine:Xpdl_simhw.Machine.t ->
  Model.element ->
  Model.element * result list

(** Instructions still unresolved (empty after a successful bootstrap). *)
val remaining_placeholders : Model.element -> string list
