(** Deployment-time bootstrap of the energy model (Sec. III-C, IV): the
    paper's entry point over the {!Resilient} engine.

    For every instruction whose energy entry is the ["?"] placeholder, the
    engine runs the referenced microbenchmark on the target platform,
    reduces the repeated measurements with {!Stats}, and writes the
    derived value back into the model.  On request it also sweeps the
    available frequencies and emits a per-frequency [<data>] table like
    the [divsd] rows of Listing 14. *)

open Xpdl_core

let default_options = { Resilient.default_policy with repetitions = 9 }

(** One derived energy entry. *)
type result = {
  instruction : string;
  benchmark : string;  (** microbenchmark id used *)
  energy : Stats.summary;  (** J per instruction at the (first) frequency *)
  per_frequency : (float * float) list;  (** (Hz, J) when a sweep was requested *)
}

(* One meter reading of J/instruction for [name] on [machine] at its
   current clock: the driver loop's dynamic energy over its count. *)
let measure_once machine ~name ~iterations =
  let w = Xpdl_simhw.Kernels.single_instruction ~name ~iterations in
  let m = Xpdl_simhw.Machine.run machine w in
  m.Xpdl_simhw.Machine.dynamic_energy /. float_of_int iterations

(** Adaptive measurement: keep sampling until the 95% confidence interval
    of the mean is within [target_rci] (relative half-width, default 1%)
    or [max_samples] is reached — the "where required" refinement of the
    bootstrap, spending repetitions only on noisy entries. *)
let measure_adaptive ?(target_rci = 0.01) ?(max_samples = 200) machine ~name ~iterations :
    Stats.summary =
  (* [draws] counts meter reads (the sampling budget); [samples] keeps
     only the finite ones — a NaN/inf read is discarded and resampled
     rather than poisoning the running CI statistics. *)
  let rec loop samples kept draws =
    if draws >= max_samples then
      if kept = 0 then
        Fmt.invalid_arg "Bootstrap.measure_adaptive: no finite sample for %s in %d reads" name
          max_samples
      else Stats.summarize samples
    else
      let x = measure_once machine ~name ~iterations in
      if not (Float.is_finite x) then loop samples kept (draws + 1)
      else
        let samples = x :: samples in
        let kept = kept + 1 in
        if kept < 3 then loop samples kept (draws + 1)
        else
          let s = Stats.summarize samples in
          if s.Stats.ci95_half_width <= target_rci *. Float.abs s.Stats.mean then s
          else loop samples kept (draws + 1)
  in
  loop [] 0 0

(* Every benchmark the engine measured at the current clocks; a
   quarantined one has no statistics and no result. *)
let results_of_health (h : Resilient.health) : result list =
  List.filter_map
    (fun (b : Resilient.bench) ->
      Option.map
        (fun energy ->
          {
            instruction = b.Resilient.b_instruction;
            benchmark = b.b_benchmark;
            energy;
            per_frequency = b.b_sweep;
          })
        b.b_stats)
    h.Resilient.h_benches

(** Full bootstrap of a composed model: measure what is unspecified
    (instruction energies and link offsets) and return the model with
    every derived entry filled in and labeled, plus the per-instruction
    results. *)
let run ?(opts = default_options) ?machine (root : Model.element) :
    Model.element * result list =
  let root, health = Resilient.run ~policy:opts ?machine root in
  (root, results_of_health health)

(** Instructions still unresolved after a bootstrap (should be empty). *)
let remaining_placeholders (root : Model.element) : string list =
  Model.fold
    (fun acc (e : Model.element) ->
      if Schema.equal_kind e.kind Schema.Instruction && Model.attr_is_unknown e "energy" then
        match Model.identifier e with Some n -> n :: acc | None -> acc
      else acc)
    [] root
  |> List.rev
