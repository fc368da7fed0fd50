(** Deployment-time bootstrap of the energy model (Sec. III-C, IV).

    For every instruction whose energy entry is the ["?"] placeholder, the
    toolchain runs the referenced microbenchmark on the target platform,
    reduces the repeated measurements with {!Stats}, and writes the
    derived value back into the model.  On request it also sweeps the
    available frequencies and emits a per-frequency [<data>] table like
    the [divsd] rows of Listing 14. *)

open Xpdl_core

type options = {
  repetitions : int;  (** meter readings per benchmark *)
  frequencies : float list;  (** Hz sweep; [] = current frequency only *)
  force : bool;
      (** re-measure instructions whose energy is already specified
          ("on request, microbenchmarking can also be applied to
          instructions with given energy cost and will then override the
          specified values") *)
}

let default_options = { repetitions = 9; frequencies = []; force = false }

(** One derived energy entry. *)
type result = {
  instruction : string;
  benchmark : string;  (** microbenchmark id used *)
  energy : Stats.summary;  (** J per instruction at the (first) frequency *)
  per_frequency : (float * float) list;  (** (Hz, J) when a sweep was requested *)
  runs : int;
}

(* Measure J/instruction for [name] on [machine] at its current clock:
   run the driver loop, subtract the loop overhead measured by an empty
   calibration run (approximated by the [nop] cost), divide by count. *)
let measure_once machine ~name ~iterations =
  let w = Xpdl_simhw.Kernels.single_instruction ~name ~iterations in
  let m = Xpdl_simhw.Machine.run machine w in
  m.Xpdl_simhw.Machine.dynamic_energy /. float_of_int iterations

let measure machine ~(opts : options) ~name ~iterations : Stats.summary =
  let samples = List.init opts.repetitions (fun _ -> measure_once machine ~name ~iterations) in
  Stats.summarize samples

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

(* Which microbenchmark measures [i]?  Its own [mb], else one in the suite
   whose [type] matches, else a synthesized id. *)
let benchmark_for (suites : Power.suite list) (i : Power.instruction) =
  match i.Power.in_mb with
  | Some mb -> mb
  | None -> (
      let by_type =
        List.find_map
          (fun s ->
            List.find_map
              (fun (b : Power.microbenchmark) ->
                if String.equal b.mb_instruction i.Power.in_name then Some b.mb_id else None)
              s.Power.su_benches)
          suites
      in
      match by_type with Some mb -> mb | None -> "auto_" ^ i.Power.in_name)

let iterations_for (suites : Power.suite list) mb_id =
  List.find_map
    (fun s ->
      List.find_map
        (fun (b : Power.microbenchmark) ->
          if String.equal b.mb_id mb_id then Some b.mb_iterations else None)
        s.Power.su_benches)
    suites
  |> Option.value ~default:100_000

(** Run the bootstrap for one ISA on [machine]: measures every
    [To_benchmark] instruction (all of them when [opts.force]). *)
let run_isa ~opts machine (isa : Power.isa) (suites : Power.suite list) :
    result list =
  let needs_measuring (i : Power.instruction) =
    opts.force || match i.Power.in_energy with Power.To_benchmark -> true | _ -> false
  in
  List.filter_map
    (fun (i : Power.instruction) ->
      if not (needs_measuring i) then None
      else begin
        let mb = benchmark_for suites i in
        let iterations = iterations_for suites mb in
        let sweep_freqs = opts.frequencies in
        let current = measure machine ~opts ~name:i.Power.in_name ~iterations in
        let per_frequency =
          List.map
            (fun hz ->
              Xpdl_simhw.Machine.set_frequency machine hz;
              let s = measure machine ~opts ~name:i.Power.in_name ~iterations in
              (hz, s.Stats.mean))
            sweep_freqs
        in
        if sweep_freqs <> [] then Xpdl_simhw.Machine.restore_nominal_clocks machine;
        Some
          {
            instruction = i.Power.in_name;
            benchmark = mb;
            energy = current;
            per_frequency;
            runs = opts.repetitions * (1 + List.length sweep_freqs);
          }
      end)
    isa.Power.isa_instructions

(** {1 Writing results back into the model}

    The derived entries replace the ["?"] placeholders in the model tree,
    producing the bootstrapped model the runtime-model generator
    serializes. *)

let joules_attr j = Model.Quantity (Xpdl_units.Units.joules j, "pJ")

let apply_results (results : result list) (root : Model.element) : Model.element =
  let find_result name =
    List.find_opt (fun r -> String.equal r.instruction name) results
  in
  let rec rewrite (e : Model.element) : Model.element =
    let e = { e with children = List.map rewrite e.children } in
    if Schema.equal_kind e.kind Schema.Instruction then
      match Option.bind (Model.identifier e) find_result with
      | Some r ->
          let e = Model.set_attr e "energy" (joules_attr r.energy.Stats.mean) in
          if r.per_frequency = [] then e
          else
            let data_rows =
              List.map
                (fun (hz, j) ->
                  Model.make Schema.Data
                    ~attrs:
                      [
                        ("frequency", Model.Quantity (Xpdl_units.Units.hertz hz, "GHz"));
                        ("energy", joules_attr j);
                      ])
                r.per_frequency
            in
            { e with children = e.children @ data_rows }
      | None -> e
    else e
  in
  rewrite root

(** {1 Link-offset calibration}

    Interconnect channels may declare their per-message time/energy
    offsets as ["?"] (Listing 3).  These are derived like instruction
    energies: repeated 1-byte transfers isolate the offsets (the
    bandwidth term is negligible at that size), and the means replace the
    placeholders on every channel of the link. *)

let resolve_link_offsets ~opts machine (root : Model.element) :
    Model.element =
  let measure_offsets link =
    let samples =
      List.init opts.repetitions (fun _ ->
          Xpdl_simhw.Machine.transfer machine ~link ~bytes:1)
    in
    ( Stats.mean (List.map fst samples), Stats.mean (List.map snd samples) )
  in
  let rec rewrite (e : Model.element) : Model.element =
    let e = { e with children = List.map rewrite e.children } in
    if not (Schema.equal_kind e.kind Schema.Interconnect) then e
    else
      match Model.identifier e with
      | Some link when Xpdl_simhw.Machine.find_link machine link <> None ->
          let needs_fix =
            List.exists
              (fun (ch : Model.element) ->
                Model.attr_is_unknown ch "time_offset_per_message"
                || Model.attr_is_unknown ch "energy_offset_per_message")
              (Model.children_of_kind e Schema.Channel)
          in
          if not needs_fix then e
          else begin
            let toff, eoff = measure_offsets link in
            let fix_channel (ch : Model.element) =
              if not (Schema.equal_kind ch.kind Schema.Channel) then ch
              else
                let ch =
                  if Model.attr_is_unknown ch "time_offset_per_message" then
                    Model.set_attr ch "time_offset_per_message"
                      (Model.Quantity (Xpdl_units.Units.seconds toff, "ns"))
                  else ch
                in
                if Model.attr_is_unknown ch "energy_offset_per_message" then
                  Model.set_attr ch "energy_offset_per_message"
                    (Model.Quantity (Xpdl_units.Units.joules eoff, "pJ"))
                else ch
            in
            { e with children = List.map fix_channel e.children }
          end
      | _ -> e
  in
  rewrite root

(** Full bootstrap of a composed model: build the machine, find its ISAs
    and suites, measure what is unspecified (instruction energies and
    link offsets), and return the model with every derived entry filled
    in, plus the per-instruction results. *)
let run ?(opts = default_options) ?machine (root : Model.element) :
    Model.element * result list =
  let machine =
    match machine with Some m -> m | None -> Xpdl_simhw.Machine.create root
  in
  let pm = Xpdl_simhw.Machine.power_model machine root in
  let results =
    List.concat_map (fun isa -> run_isa ~opts machine isa pm.Power.pm_suites) pm.Power.pm_isas
  in
  let root = resolve_link_offsets ~opts machine root in
  (apply_results results root, results)

(** Instructions still unresolved after a bootstrap (should be empty). *)
let remaining_placeholders (root : Model.element) : string list =
  Model.fold
    (fun acc (e : Model.element) ->
      if Schema.equal_kind e.kind Schema.Instruction && Model.attr_is_unknown e "energy" then
        match Model.identifier e with Some n -> n :: acc | None -> acc
      else acc)
    [] root
  |> List.rev
