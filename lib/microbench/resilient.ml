(** Fault-tolerant deployment bootstrap (see the interface).

    All time in this module is {e simulated}: attempts are charged the
    measurements' own [elapsed] readings, hung reads are charged the
    policy's [read_timeout], and backoff waits are charged as-is.  No
    wall clock is ever consulted, which is what makes a health report a
    pure function of (model, machine seed, fault seed, policy) — the
    byte-for-byte reproducibility the acceptance tests pin down. *)

open Xpdl_core
module Machine = Xpdl_simhw.Machine
module Faults = Xpdl_simhw.Faults
module Rng = Xpdl_simhw.Rng
module Store = Xpdl_store.Store

type policy = {
  read_timeout : float;
  deadline : float;
  budget : float;
  retries : int;
  backoff_base : float;
  backoff_factor : float;
  backoff_jitter : float;
  backoff_seed : int;
  repetitions : int;
  frequencies : float list;
  force : bool;
  fail_fast : bool;
}

let default_policy =
  {
    read_timeout = 1.0;
    deadline = 10.0;
    budget = 300.0;
    retries = 3;
    backoff_base = 0.05;
    backoff_factor = 2.0;
    backoff_jitter = 0.25;
    backoff_seed = 42;
    repetitions = 7;
    frequencies = [];
    force = false;
    fail_fast = false;
  }

(* The backoff stream is derived from (policy seed, benchmark name), so
   schedules are independent per benchmark yet fully replayable.  The
   jitter only lengthens a delay (factor 1 + j*u), unlike
   [Xpdl_serve.Client.backoff_delay]'s symmetric 1 - j + 2j*u: the
   delays land in the health reports that test_faults pins as
   byte-identical replays, so the two formulas stay separate. *)
let backoff_schedule policy ~name ~attempts =
  let rng = Rng.split (Rng.create ~seed:policy.backoff_seed) ("backoff:" ^ name) in
  List.init attempts (fun i ->
      policy.backoff_base
      *. (policy.backoff_factor ** float_of_int i)
      *. (1. +. (policy.backoff_jitter *. Rng.float rng)))

type quality = Measured | Interpolated | Inherited | Unresolved

let quality_name = function
  | Measured -> "measured"
  | Interpolated -> "interpolated"
  | Inherited -> "inherited"
  | Unresolved -> "unresolved"

type failure =
  | Timed_out
  | Non_finite
  | Offline of string
  | Budget_exhausted
  | Skipped
  | Errored of string

let failure_name = function
  | Timed_out -> "timeout"
  | Non_finite -> "non-finite"
  | Offline c -> "offline:" ^ c
  | Budget_exhausted -> "budget-exhausted"
  | Skipped -> "skipped"
  | Errored m -> "error:" ^ m

type attempt = {
  at_n : int;
  at_failure : failure option;
  at_samples : int;
  at_rejected : int;
  at_elapsed : float;
  at_backoff : float;
}

type bench = {
  b_instruction : string;
  b_benchmark : string;
  b_attempts : attempt list;
  b_quality : quality;
  b_energy : float option;
  b_stats : Stats.summary option;
  b_sweep : (float * float) list;
  b_quarantined : bool;
}

type health = {
  h_benches : bench list;
  h_links : bench list;
  h_elapsed : float;
  h_budget : float;
  h_budget_exhausted : bool;
  h_aborted : bool;
  h_fault_reads : int;
  h_fault_events : int;
  h_diags : Diagnostic.t list;
}

(* ------------------------------------------------------------------ *)
(* Simulated clock *)

type clock = { mutable now : float }

let charge clock dt = if Float.is_finite dt && dt > 0. then clock.now <- clock.now +. dt

(* ------------------------------------------------------------------ *)
(* One measurement attempt

   [read ()] performs one meter reading and returns (value, elapsed).
   The attempt draws readings until [repetitions] finite values are
   kept or the drawing budget (3x) is spent; every reading's elapsed
   time is charged to the suite clock.  Simulator exceptions — hung
   meters, offline cores, and the audited escapees of the satellite task
   ([Invalid_argument], [Not_found], [Division_by_zero]) — are caught
   here and turned into typed failures, never propagated. *)

type attempt_result = {
  ar_failure : failure option;
  ar_samples : float list;
  ar_rejected : int;
  ar_elapsed : float;
}

let run_attempt policy clock read : attempt_result =
  let samples = ref [] and kept = ref 0 and rejected = ref 0 and elapsed = ref 0. in
  let failure =
    try
      let draws = ref 0 in
      while !kept < policy.repetitions && !draws < 3 * policy.repetitions do
        incr draws;
        let v, dt = read () in
        elapsed := !elapsed +. (if Float.is_finite dt && dt > 0. then dt else 0.);
        if Float.is_finite v then begin
          samples := v :: !samples;
          incr kept
        end
        else incr rejected
      done;
      if !kept >= policy.repetitions then None else Some Non_finite
    with
    | Faults.Meter_timeout _ ->
        elapsed := !elapsed +. policy.read_timeout;
        Some Timed_out
    | Faults.Core_offline c -> Some (Offline c)
    | Invalid_argument m | Failure m -> Some (Errored m)
    | Not_found -> Some (Errored "Not_found")
    | Division_by_zero -> Some (Errored "Division_by_zero")
  in
  charge clock !elapsed;
  {
    ar_failure = failure;
    ar_samples = List.rev !samples;
    ar_rejected = !rejected;
    ar_elapsed = !elapsed;
  }

(* Retry [read] with backoff until success or the policy gives up.
   Returns the attempt log and the successful sample list, if any.  An
   [Offline] failure aborts immediately — the core will not come back. *)
let with_retries policy clock ~name read : attempt list * float list option =
  let schedule = Array.of_list (backoff_schedule policy ~name ~attempts:(policy.retries + 1)) in
  let rec go n bench_elapsed acc =
    if clock.now >= policy.budget then
      ( List.rev
          ({
             at_n = n;
             at_failure = Some Budget_exhausted;
             at_samples = 0;
             at_rejected = 0;
             at_elapsed = 0.;
             at_backoff = 0.;
           }
          :: acc),
        None )
    else
      let r = run_attempt policy clock read in
      let give_up =
        match r.ar_failure with
        | None -> true
        | Some (Offline _) -> true
        | Some _ ->
            n > policy.retries
            || bench_elapsed +. r.ar_elapsed >= policy.deadline
            || clock.now >= policy.budget
      in
      let backoff =
        if give_up then 0.
        else
          let b = schedule.(min (n - 1) (Array.length schedule - 1)) in
          charge clock b;
          b
      in
      let at =
        {
          at_n = n;
          at_failure = r.ar_failure;
          at_samples = List.length r.ar_samples;
          at_rejected = r.ar_rejected;
          at_elapsed = r.ar_elapsed;
          at_backoff = backoff;
        }
      in
      let acc = at :: acc in
      match r.ar_failure with
      | None -> (List.rev acc, Some r.ar_samples)
      | Some _ when give_up -> (List.rev acc, None)
      | Some _ -> go (n + 1) (bench_elapsed +. r.ar_elapsed +. backoff) acc
  in
  go 1 0. []

(* ------------------------------------------------------------------ *)
(* Degradation ladder helpers *)

(* Piecewise-linear interpolation over measured (Hz, J) sweep points,
   clamped at the ends; needs at least two points. *)
let interpolate_sweep sweep ~hz =
  match List.sort (fun (a, _) (b, _) -> Float.compare a b) sweep with
  | [] | [ _ ] -> None
  | (f0, e0) :: _ as sorted ->
      let rec interp = function
        | [] -> None
        | [ (_, e) ] -> Some e
        | (f1, e1) :: ((f2, e2) :: _ as rest) ->
            if hz <= f1 then Some e1
            else if hz <= f2 then Some (e1 +. ((e2 -. e1) *. (hz -. f1) /. (f2 -. f1)))
            else interp rest
      in
      if hz <= f0 then Some e0 else interp sorted

(* The inherited fallback: the meta-model's own per-frequency table
   (data rows merged in by composition), else a declared
   [default_energy] on the instruction or its <instructions> parent. *)
let inherited_energy ~instr ~(element : Model.element) ~(parent : Model.element option) ~hz =
  let of_attr (e : Model.element) =
    match Model.attr_quantity e "default_energy" with
    | Some q -> Some (Xpdl_units.Units.value q)
    | None -> Model.attr_float e "default_energy"
  in
  match Option.bind instr (fun i -> Power.instruction_energy_at i ~hz) with
  | Some e -> Some e
  | None -> (
      match of_attr element with
      | Some e -> Some e
      | None -> Option.bind parent of_attr)

let joules_attr j = Model.Quantity (Xpdl_units.Units.joules j, "pJ")
let quality_attr q = Model.Str (quality_name q)

let data_row (hz, j) =
  Model.make Schema.Data
    ~attrs:
      [
        ("frequency", Model.Quantity (Xpdl_units.Units.hertz hz, "GHz")); ("energy", joules_attr j);
      ]

(* ------------------------------------------------------------------ *)
(* The suite *)

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

let current_hz machine =
  if Array.length machine.Machine.cores = 0 then 1.0e9 else machine.Machine.cores.(0).Machine.hz

let run_store ?(policy = default_policy) ?machine (store : Store.t) : health =
  let model = Store.model store in
  let machine = match machine with Some m -> m | None -> Machine.create model in
  let pm = Machine.power_model machine model in
  let instr_info name =
    List.find_map
      (fun (isa : Power.isa) ->
        List.find_map
          (fun (i : Power.instruction) ->
            if String.equal i.Power.in_name name then Some i else None)
          isa.Power.isa_instructions)
      pm.Power.pm_isas
  in
  let clock = { now = 0. } in
  let diags = ref [] in
  let diag d = diags := d :: !diags in
  let offline_reported = ref [] in
  let budget_exhausted = ref false in
  let aborted = ref false in
  let note_stop attempts =
    (* classify why a benchmark was not (fully) measured *)
    List.iter
      (fun at ->
        match at.at_failure with
        | Some (Offline c) when not (List.mem c !offline_reported) ->
            offline_reported := c :: !offline_reported;
            diag
              (Diagnostic.warning ~code:"XPDL507" "core %s went offline during the benchmark suite"
                 c)
        | _ -> ())
      attempts
  in
  let skip_reason () =
    if !budget_exhausted then Some Budget_exhausted else if !aborted then Some Skipped else None
  in
  let check_budget () =
    if (not !budget_exhausted) && clock.now >= policy.budget then begin
      budget_exhausted := true;
      diag
        (Diagnostic.warning ~code:"XPDL508"
           "suite time budget (%g s simulated) exhausted; remaining benchmarks quarantined"
           policy.budget)
    end
  in
  let bench_diags (b : bench) =
    if List.exists (fun a -> a.at_failure = Some Timed_out) b.b_attempts then
      diag
        (Diagnostic.warning ~code:"XPDL501" "meter read timed out while benchmarking %s"
           b.b_instruction);
    if List.exists (fun a -> a.at_rejected > 0 || a.at_failure = Some Non_finite) b.b_attempts
    then
      diag
        (Diagnostic.warning ~code:"XPDL502"
           "meter returned non-finite samples while benchmarking %s; resampled" b.b_instruction);
    List.iter
      (fun a ->
        match a.at_failure with
        | Some (Errored m) ->
            diag
              (Diagnostic.error ~code:"XPDL500"
                 "microbenchmark harness caught a simulator error while benchmarking %s: %s"
                 b.b_instruction m)
        | _ -> ())
      b.b_attempts;
    if b.b_quarantined then
      diag
        (Diagnostic.warning ~code:"XPDL503"
           "benchmark %s for %s quarantined after %d attempt%s; degraded to %s" b.b_benchmark
           b.b_instruction
           (List.length b.b_attempts)
           (if List.length b.b_attempts = 1 then "" else "s")
           (quality_name b.b_quality));
    match b.b_quality with
    | Measured -> ()
    | Interpolated ->
        diag
          (Diagnostic.info ~code:"XPDL504"
             "energy of %s interpolated from a partial frequency sweep (%d points)" b.b_instruction
             (List.length b.b_sweep))
    | Inherited ->
        diag
          (Diagnostic.info ~code:"XPDL505" "energy of %s inherited from the meta-model/default value"
             b.b_instruction)
    | Unresolved ->
        diag
          (Diagnostic.warning ~code:"XPDL506"
             "placeholder %s unresolved after the degradation ladder" b.b_instruction)
  in

  (* --- targets: one walk finds both kinds, in document order.  The
     instruction write-backs below touch only instruction subtrees, so
     the link paths stay valid. -------------------------------------- *)
  let is_instruction e = Schema.equal_kind e.Model.kind Schema.Instruction in
  let instr_paths, link_paths =
    Store.find_paths store (fun e ->
        if is_instruction e then policy.force || Model.attr_is_unknown e "energy"
        else
          Schema.equal_kind e.Model.kind Schema.Interconnect
          && (match Model.identifier e with
             | Some link -> Machine.find_link machine link <> None
             | None -> false)
          && List.exists
               (fun (ch : Model.element) ->
                 Model.attr_is_unknown ch "time_offset_per_message"
                 || Model.attr_is_unknown ch "energy_offset_per_message")
               (Model.children_of_kind e Schema.Channel))
    |> List.partition (fun path -> is_instruction (Option.get (Store.element_at store path)))
  in

  (* --- instruction benchmarks ------------------------------------- *)
  let benches =
    List.map
      (fun path ->
        let e = Option.get (Store.element_at store path) in
        let name = Option.value ~default:"?" (Model.identifier e) in
        let instr = instr_info name in
        let mb =
          match instr with
          | Some i -> benchmark_for pm.Power.pm_suites i
          | None -> "auto_" ^ name
        in
        let iterations = iterations_for pm.Power.pm_suites mb in
        let read () =
          let w = Xpdl_simhw.Kernels.single_instruction ~name ~iterations in
          let m = Machine.run machine w in
          (m.Machine.dynamic_energy /. float_of_int iterations, m.Machine.elapsed)
        in
        check_budget ();
        let attempts, success =
          match skip_reason () with
          | Some why ->
              ( [
                  {
                    at_n = 1;
                    at_failure = Some why;
                    at_samples = 0;
                    at_rejected = 0;
                    at_elapsed = 0.;
                    at_backoff = 0.;
                  };
                ],
                None )
          | None -> with_retries policy clock ~name:mb read
        in
        note_stop attempts;
        let went_offline =
          List.exists
            (fun a -> match a.at_failure with Some (Offline _) -> true | _ -> false)
            attempts
        in
        (* frequency sweep: one un-retried attempt per point.  Runs even
           when the current-frequency measurement failed — the sweep is
           what the interpolation fallback feeds on — but not for an
           offline core or an exhausted budget. *)
        let sweep =
          if policy.frequencies = [] || went_offline || skip_reason () <> None then []
          else begin
            let pts =
              List.filter_map
                (fun hz ->
                  check_budget ();
                  if !budget_exhausted then None
                  else begin
                    Machine.set_frequency machine hz;
                    let r = run_attempt policy clock read in
                    match r.ar_failure with
                    | None -> Some (hz, (Stats.summarize r.ar_samples).Stats.mean)
                    | Some _ -> None
                  end)
                policy.frequencies
            in
            Machine.restore_nominal_clocks machine;
            pts
          end
        in
        let stats = Option.map Stats.summarize success in
        let quality, energy =
          match stats with
          | Some s -> (Measured, Some s.Stats.mean)
          | None -> (
              match interpolate_sweep sweep ~hz:(current_hz machine) with
              | Some j -> (Interpolated, Some j)
              | None -> (
                  let parent =
                    match List.rev path with
                    | [] -> None
                    | _ :: rp -> Store.element_at store (List.rev rp)
                  in
                  match
                    inherited_energy ~instr ~element:e ~parent ~hz:(current_hz machine)
                  with
                  | Some j -> (Inherited, Some j)
                  | None -> (Unresolved, None)))
        in
        (* write back through the store's edit API *)
        (match energy with
        | Some j -> Store.set_attr store path "energy" (joules_attr j)
        | None -> ());
        List.iter (fun pt -> Store.insert_child store path (data_row pt)) sweep;
        Store.set_attr store path "quality" (quality_attr quality);
        let b =
          {
            b_instruction = name;
            b_benchmark = mb;
            b_attempts = attempts;
            b_quality = quality;
            b_energy = energy;
            b_stats = stats;
            b_sweep = sweep;
            b_quarantined = success = None;
          }
        in
        bench_diags b;
        check_budget ();
        if policy.fail_fast && b.b_quarantined then aborted := true;
        b)
      instr_paths
  in

  (* --- link-offset calibration ------------------------------------ *)
  let links =
    List.map
      (fun path ->
        let e = Option.get (Store.element_at store path) in
        let link = Option.get (Model.identifier e) in
        (* readings are (energy, elapsed); times are recollected from a
           parallel list so both offsets come from the same transfers *)
        let times = ref [] in
        let read () =
          let t, en = Machine.transfer machine ~link ~bytes:1 in
          if Float.is_finite en then times := t :: !times;
          (en, t)
        in
        check_budget ();
        let attempts, success =
          match skip_reason () with
          | Some why ->
              ( [
                  {
                    at_n = 1;
                    at_failure = Some why;
                    at_samples = 0;
                    at_rejected = 0;
                    at_elapsed = 0.;
                    at_backoff = 0.;
                  };
                ],
                None )
          | None ->
              times := [];
              with_retries policy clock ~name:("link:" ^ link) read
        in
        note_stop attempts;
        let stats = Option.map Stats.summarize success in
        let quality, eoff =
          match stats with Some s -> (Measured, Some s.Stats.mean) | None -> (Unresolved, None)
        in
        let toff =
          match success with
          | None -> None
          | Some samples ->
              (* the last [repetitions] finite transfers of the winning attempt *)
              let n = List.length samples in
              let ts = List.filteri (fun i _ -> i < n) !times in
              Some (Stats.mean ts)
        in
        List.iteri
          (fun i (ch : Model.element) ->
            if Schema.equal_kind ch.Model.kind Schema.Channel then begin
              let chpath = path @ [ i ] in
              (match toff with
              | Some t when Model.attr_is_unknown ch "time_offset_per_message" ->
                  Store.set_attr store chpath "time_offset_per_message"
                    (Model.Quantity (Xpdl_units.Units.seconds t, "ns"))
              | _ -> ());
              (match eoff with
              | Some j when Model.attr_is_unknown ch "energy_offset_per_message" ->
                  Store.set_attr store chpath "energy_offset_per_message" (joules_attr j)
              | _ -> ());
              if
                Model.attr_is_unknown ch "time_offset_per_message"
                || Model.attr_is_unknown ch "energy_offset_per_message"
                || toff <> None || eoff <> None
              then Store.set_attr store chpath "quality" (quality_attr quality)
            end)
          e.Model.children;
        let b =
          {
            b_instruction = link;
            b_benchmark = "transfer";
            b_attempts = attempts;
            b_quality = quality;
            b_energy = eoff;
            b_stats = stats;
            b_sweep = [];
            b_quarantined = success = None;
          }
        in
        bench_diags b;
        check_budget ();
        if policy.fail_fast && b.b_quarantined then aborted := true;
        b)
      link_paths
  in
  let fault_reads, fault_events =
    match Machine.faults machine with
    | None -> (0, 0)
    | Some plan -> (Faults.reads plan, List.length (Faults.events plan))
  in
  {
    h_benches = benches;
    h_links = links;
    h_elapsed = clock.now;
    h_budget = policy.budget;
    h_budget_exhausted = !budget_exhausted;
    h_aborted = !aborted;
    h_fault_reads = fault_reads;
    h_fault_events = fault_events;
    h_diags = List.rev !diags;
  }

let run ?policy ?machine (root : Model.element) : Model.element * health =
  let store = Store.of_model root in
  let machine = match machine with Some m -> m | None -> Machine.create root in
  let health = run_store ?policy ~machine store in
  (Store.model store, health)

(* Scope paths follow the same prefix convention as the runtime model's
   path index: unnamed nodes inherit their parent's prefix. *)
let quality_entries (root : Model.element) : (string * string) list =
  let acc = ref [] in
  let rec walk prefix (e : Model.element) =
    let here =
      match Model.identifier e with
      | Some i -> if prefix = "" then i else prefix ^ "/" ^ i
      | None -> prefix
    in
    (match Model.attr_string e "quality" with
    | Some q -> acc := (here, q) :: !acc
    | None -> ());
    List.iter (walk here) e.Model.children
  in
  walk "" root;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* Reports *)

let attempt_to_json a =
  Fmt.str {|{"n":%d,"outcome":%s,"samples":%d,"rejected":%d,"elapsed":%s,"backoff":%s}|} a.at_n
    (Xpdl_kernel.json_string (match a.at_failure with None -> "ok" | Some f -> failure_name f))
    a.at_samples a.at_rejected (Xpdl_kernel.json_float a.at_elapsed)
    (Xpdl_kernel.json_float a.at_backoff)

let bench_to_json b =
  Fmt.str
    {|{"instruction":%s,"benchmark":%s,"quality":%s,"quarantined":%b,"energy":%s,"attempts":[%s],"sweep":[%s]}|}
    (Xpdl_kernel.json_string b.b_instruction) (Xpdl_kernel.json_string b.b_benchmark)
    (Xpdl_kernel.json_string (quality_name b.b_quality))
    b.b_quarantined
    (match b.b_energy with Some j -> Xpdl_kernel.json_float j | None -> "null")
    (String.concat "," (List.map attempt_to_json b.b_attempts))
    (String.concat ","
       (List.map
          (fun (hz, j) ->
            Fmt.str "[%s,%s]" (Xpdl_kernel.json_float hz) (Xpdl_kernel.json_float j))
          b.b_sweep))

let health_to_json h =
  Fmt.str
    {|{"elapsed":%s,"budget":%s,"budget_exhausted":%b,"aborted":%b,"fault_reads":%d,"fault_events":%d,"benches":[%s],"links":[%s],"diagnostics":[%s]}|}
    (Xpdl_kernel.json_float h.h_elapsed) (Xpdl_kernel.json_float h.h_budget)
    h.h_budget_exhausted h.h_aborted h.h_fault_reads h.h_fault_events
    (String.concat "," (List.map bench_to_json h.h_benches))
    (String.concat "," (List.map bench_to_json h.h_links))
    (String.concat "," (List.map Diagnostic.to_json h.h_diags))

let pp_attempt ppf a =
  Fmt.pf ppf "attempt %d: %s (%d samples, %d rejected, %.4g s%s)" a.at_n
    (match a.at_failure with None -> "ok" | Some f -> failure_name f)
    a.at_samples a.at_rejected a.at_elapsed
    (if a.at_backoff > 0. then Fmt.str ", backoff %.3g s" a.at_backoff else "")

let pp_bench ppf b =
  Fmt.pf ppf "@[<v2>%s (%s): %s%s%s@,%a@]" b.b_instruction b.b_benchmark
    (quality_name b.b_quality)
    (match b.b_energy with Some j -> Fmt.str " %.4g J" j | None -> "")
    (if b.b_quarantined then " [quarantined]" else "")
    (Fmt.list ~sep:Fmt.cut pp_attempt) b.b_attempts

let pp_health ppf h =
  Fmt.pf ppf "@[<v>%a@,%a@,%.4g simulated s of %g budget%s%s; %d fault reads, %d faults fired@]"
    (Fmt.list ~sep:Fmt.cut pp_bench) (h.h_benches @ h.h_links) Diagnostic.pp_list h.h_diags
    h.h_elapsed h.h_budget
    (if h.h_budget_exhausted then " (exhausted)" else "")
    (if h.h_aborted then " (aborted: fail-fast)" else "")
    h.h_fault_reads h.h_fault_events
