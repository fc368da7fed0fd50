(** The deployment bootstrap engine (Sec. III-C, IV).

    This is the one implementation of the bootstrap: {!Bootstrap.run}
    (and so [Pipeline.run]) calls it with no fault plan.  It wraps every
    measurement in a retry/timeout/quarantine discipline and a
    graceful-degradation ladder, so a machine with an attached
    {!Xpdl_simhw.Faults} plan (or a genuinely misbehaving meter) still
    yields a complete, well-labeled model:

    - every benchmark gets a per-benchmark {e deadline} and the suite a
      global {e budget}, both in {e simulated} seconds (summed measurement
      time plus charged timeouts and backoff waits — never wall clock, so
      reports are byte-for-byte reproducible from the seeds);
    - failed attempts retry with exponential backoff and deterministic
      jitter drawn from the policy seed;
    - non-finite samples are rejected and resampled, wild outliers are
      handled by {!Stats}' MAD rejection;
    - a benchmark that keeps failing is {e quarantined} and its ["?"]
      entry falls down the degradation ladder: interpolation from the
      measured frequency sweep, then the inherited meta-model/default
      value, then it stays unresolved;
    - every outcome writes a [quality] provenance attribute
      (["measured"], ["interpolated"], ["inherited"], ["unresolved"])
      through the {!Xpdl_store.Store} edit API and emits coded XPDL5xx
      diagnostics. *)

open Xpdl_core

type policy = {
  read_timeout : float;  (** simulated s charged for a hung meter read *)
  deadline : float;  (** per-benchmark simulated-time deadline *)
  budget : float;  (** suite-level simulated-time budget *)
  retries : int;  (** extra attempts after the first failure *)
  backoff_base : float;  (** first backoff delay, simulated s *)
  backoff_factor : float;  (** exponential growth per retry *)
  backoff_jitter : float;  (** relative jitter amplitude, deterministic *)
  backoff_seed : int;  (** seeds the jitter stream *)
  repetitions : int;  (** finite samples wanted per attempt *)
  frequencies : float list;
      (** Hz sweep, written back as [<data>] rows; also feeds the
          interpolation fallback *)
  force : bool;
      (** also re-measure instructions whose energy is specified ("on
          request, microbenchmarking can also be applied to instructions
          with given energy cost and will then override the specified
          values") *)
  fail_fast : bool;  (** stop the suite at the first quarantine *)
}

val default_policy : policy

(** The deterministic backoff delays after attempts 1..[attempts] for one
    benchmark: [base·factor^i], jittered from [backoff_seed] and the
    benchmark name.  Same policy and name ⇒ same schedule. *)
val backoff_schedule : policy -> name:string -> attempts:int -> float list

(** Provenance of a resolved (or abandoned) ["?"] entry. *)
type quality = Measured | Interpolated | Inherited | Unresolved

val quality_name : quality -> string

(** Why an attempt (or a whole benchmark) failed. *)
type failure =
  | Timed_out  (** meter read hung past [read_timeout] *)
  | Non_finite  (** too many NaN/inf readings to fill an attempt *)
  | Offline of string  (** the core executing the benchmark went offline *)
  | Budget_exhausted  (** suite budget ran out before this benchmark *)
  | Skipped  (** suite aborted earlier ([fail_fast]) *)
  | Errored of string  (** uncaught simulator error, routed to XPDL500 *)

val failure_name : failure -> string

type attempt = {
  at_n : int;  (** 1-based attempt number *)
  at_failure : failure option;  (** [None] = success *)
  at_samples : int;  (** finite samples kept *)
  at_rejected : int;  (** non-finite readings discarded *)
  at_elapsed : float;  (** simulated s of measurement (incl. timeouts) *)
  at_backoff : float;  (** simulated s waited after this attempt *)
}

(** Per-benchmark health: what was tried, what was written. *)
type bench = {
  b_instruction : string;
  b_benchmark : string;  (** microbenchmark id, or ["transfer"] for links *)
  b_attempts : attempt list;
  b_quality : quality;
  b_energy : float option;  (** J/instruction (or J/message) written back *)
  b_stats : Stats.summary option;  (** statistics of the successful attempt *)
  b_sweep : (float * float) list;  (** successfully measured (Hz, J) points *)
  b_quarantined : bool;  (** no successful measurement at current clocks *)
}

type health = {
  h_benches : bench list;  (** instruction benchmarks, document order *)
  h_links : bench list;  (** link-offset calibrations *)
  h_elapsed : float;  (** total simulated seconds consumed *)
  h_budget : float;  (** the policy budget, for the report *)
  h_budget_exhausted : bool;
  h_aborted : bool;  (** [fail_fast] tripped *)
  h_fault_reads : int;  (** meter reads seen by an attached fault plan *)
  h_fault_events : int;  (** faults the plan actually fired *)
  h_diags : Diagnostic.t list;  (** XPDL5xx account of every fallback *)
}

(** Resilient bootstrap through a store: measure every instruction whose
    [energy] is ["?"] (every instruction under [force]) and every ["?"]
    link offset, writing results,
    [<data>] sweep rows and [quality] provenance through the store's
    edit API.  Always terminates within the policy budget (plus at most
    one benchmark deadline) and never raises on meter faults. *)
val run_store :
  ?policy:policy -> ?machine:Xpdl_simhw.Machine.t -> Xpdl_store.Store.t -> health

(** Batch convenience wrapper: returns the degraded-but-labeled model. *)
val run :
  ?policy:policy -> ?machine:Xpdl_simhw.Machine.t -> Model.element -> Model.element * health

(** [quality] provenance attributes present in a model, as
    [(scope path, quality)] pairs in document order. *)
val quality_entries : Model.element -> (string * string) list

(** The health report as one stable-layout JSON object (identical runs
    render byte-identical reports). *)
val health_to_json : health -> string

val pp_health : Format.formatter -> health -> unit
