(** Design-space exploration over parameterized platform templates
    (ROADMAP item 3; Klarhorst et al.'s DSE-for-many-core workload).

    A {e template} is an elaborated — but not yet instantiated — XPDL
    element whose [<param>] declarations carry [range] ladders: exactly
    the configurability machinery of Sec. III-B (core counts, DVFS
    frequencies, cache sizes, interconnect widths).  The engine
    enumerates the full cartesian grid over those axes, or draws a
    seeded splitmix64 sample of it, and pushes every configuration
    point through the existing instantiate → analysis → resilient
    bootstrap → energy-synthesis path on the simulated machine.  Each
    surviving point is priced by dispatching the paper's SpMV
    conditional-composition case study ({!Xpdl_compose.Spmv}) on the
    instantiated platform, yielding three objectives: total energy of
    the solve, wall-clock time, and the platform's synthesized static
    power.  The report carries the Pareto front over those objectives
    plus per-axis sensitivity summaries.

    Points whose [range]/[constraint] checks fail are {e pruned} with
    coded diagnostics (XPDL803 wrapping the XPDL21x cause) rather than
    aborting the sweep; points whose bootstrap degrades ride the PR 5
    quality ladder and keep their provenance in the per-point report
    (XPDL805).  Evaluation is embarrassingly parallel across
    configurations on OCaml 5 domains with a chunked shared queue;
    every point's result lands in a slot fixed by its grid index and
    all per-point randomness is derived from (sweep seed, grid index),
    so a parallel run is byte-identical to [jobs = 1]. *)

open Xpdl_core
module Rng = Xpdl_simhw.Rng
module Machine = Xpdl_simhw.Machine
module Faults = Xpdl_simhw.Faults
module Units = Xpdl_units.Units
module Analysis = Xpdl_toolchain.Analysis
module Query = Xpdl_query.Query
module Resilient = Xpdl_microbench.Resilient
module Store = Xpdl_store.Store
module Aggregate = Xpdl_energy.Aggregate
module Compose = Xpdl_compose.Compose
module Spmv = Xpdl_compose.Spmv

(* ------------------------------------------------------------------ *)
(* Axes and the configuration space *)

type axis = { ax_name : string; ax_values : float array }
(** One sweep dimension: a parameter name and its value ladder
    (SI-normalized floats, matching {!Instantiate.env} conventions). *)

let axis name values = { ax_name = name; ax_values = Array.of_list values }

(* Parse one ladder item; values may carry a :unit suffix (2:GHz) or be
   interpreted in [unit_spelling] when the axis declares one. *)
let parse_value ?unit_spelling s =
  let s = String.trim s in
  match String.index_opt s ':' with
  | Some j -> (
      let num = String.sub s 0 j and u = String.sub s (j + 1) (String.length s - j - 1) in
      match Units.of_string_opt num u with Some q -> Some (Units.value q) | None -> None)
  | None -> (
      match unit_spelling with
      | Some u when Units.is_known_unit u -> (
          match Units.of_string_opt s u with Some q -> Some (Units.value q) | None -> None)
      | _ -> float_of_string_opt s)

(** Parse a CLI axis specification [name=v1,v2,...]; values accept
    [:unit] suffixes ([freq=1:GHz,2:GHz]). *)
let parse_axis_spec spec : (axis, Diagnostic.t) result =
  let malformed reason =
    Error (Diagnostic.error ~code:"XPDL802" "malformed --axis %S: %s" spec reason)
  in
  match String.index_opt spec '=' with
  | None -> malformed "expected name=v1,v2,..."
  | Some i -> (
      let name = String.trim (String.sub spec 0 i) in
      let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
      if String.equal name "" then malformed "empty axis name"
      else
        let items = String.split_on_char ',' rest in
        let values = List.filter_map parse_value items in
        match values with
        | [] -> malformed "empty or unparseable value list"
        | _ when List.length values <> List.length items ->
            malformed "unparseable value in list"
        | _ -> Ok (axis name values))

(** Derive axes from the template itself: every [<param>] whose [range]
    attribute lists at least two admissible values is a sweep axis, its
    ladder read in the param's declared unit — the language's own way of
    spelling a design space (Listing 9). *)
let axes_of_template (root : Model.element) : axis list =
  let acc = ref [] in
  let rec walk (e : Model.element) =
    (if e.Model.kind = Schema.Param then
       match (e.Model.name, Model.attr_string e "range") with
       | Some name, Some range_s ->
           let quantity_spelling =
             List.find_map
               (fun key ->
                 match Model.attr e key with
                 | Some (Model.Quantity (_, spelling)) -> Some spelling
                 | _ -> None)
               [ "value"; "size"; "frequency" ]
           in
           let unit_spelling =
             match Model.attr_string e "unit" with Some u -> Some u | None -> quantity_spelling
           in
           let values =
             String.split_on_char ',' range_s |> List.filter_map (parse_value ?unit_spelling)
           in
           if List.length values >= 2 && not (List.mem_assoc name !acc) then
             acc := (name, values) :: !acc
       | _ -> ());
    List.iter walk e.Model.children
  in
  walk root;
  List.rev_map (fun (n, vs) -> axis n vs) !acc

type space = { sp_axes : axis array; sp_total : int }

let space axes : (space, Diagnostic.t) result =
  match axes with
  | [] ->
      Error
        (Diagnostic.error ~code:"XPDL801"
           "template declares no sweep axes (no <param> with a multi-value range, no --axis)")
  | _ -> (
      match List.find_opt (fun ax -> Array.length ax.ax_values = 0) axes with
      | Some ax -> Error (Diagnostic.error ~code:"XPDL802" "axis %s has no values" ax.ax_name)
      | None ->
          let sp_axes = Array.of_list axes in
          let total = Array.fold_left (fun t ax -> t * Array.length ax.ax_values) 1 sp_axes in
          Ok { sp_axes; sp_total = total })

(** Decode a grid index into per-axis bindings: mixed radix, first axis
    slowest (row-major), so index order reads like nested loops. *)
let decode sp index : (string * float) list =
  let n = Array.length sp.sp_axes in
  let rec go i rem acc =
    if i < 0 then acc
    else
      let ax = sp.sp_axes.(i) in
      let k = Array.length ax.ax_values in
      go (i - 1) (rem / k) ((ax.ax_name, ax.ax_values.(rem mod k)) :: acc)
  in
  go (n - 1) index []

(* ------------------------------------------------------------------ *)
(* Sweep plan: exhaustive grid or a seeded distinct sample *)

type plan = Exhaustive | Sample of int

(* Selected grid indices, ascending.  Sampling draws distinct indices by
   rejection on a dedicated splitmix64 stream; a quota at or above the
   space size degrades to the full grid with an XPDL806 note. *)
let select_indices ~seed sp plan : int array * Diagnostic.t list =
  match plan with
  | Exhaustive -> (Array.init sp.sp_total (fun i -> i), [])
  | Sample n when n >= sp.sp_total ->
      ( Array.init sp.sp_total (fun i -> i),
        [
          Diagnostic.info ~code:"XPDL806"
            "sample quota %d covers the whole %d-point space; sweep made exhaustive" n
            sp.sp_total;
        ] )
  | Sample n ->
      let n = max 1 n in
      let rng = Rng.split (Rng.create ~seed) "dse-sample" in
      let seen = Hashtbl.create (2 * n) in
      while Hashtbl.length seen < n do
        let i = Rng.int rng sp.sp_total in
        if not (Hashtbl.mem seen i) then Hashtbl.add seen i ()
      done;
      let picked = Hashtbl.fold (fun i () acc -> i :: acc) seen [] in
      (Array.of_list (List.sort compare picked), [])

(* ------------------------------------------------------------------ *)
(* Per-point evaluation *)

type objectives = {
  o_energy : float;  (** J: total energy of the SpMV solve on this point *)
  o_time : float;  (** s: wall-clock of the solve *)
  o_static_power : float;  (** W: synthesized static power of the platform *)
}

type quality_summary = {
  q_measured : int;
  q_interpolated : int;
  q_inherited : int;
  q_unresolved : int;
}

let no_quality = { q_measured = 0; q_interpolated = 0; q_inherited = 0; q_unresolved = 0 }

let summarize_quality entries =
  List.fold_left
    (fun q (_, name) ->
      match name with
      | "measured" -> { q with q_measured = q.q_measured + 1 }
      | "interpolated" -> { q with q_interpolated = q.q_interpolated + 1 }
      | "inherited" -> { q with q_inherited = q.q_inherited + 1 }
      | _ -> { q with q_unresolved = q.q_unresolved + 1 })
    no_quality entries

type status =
  | Evaluated of objectives  (** the point survives into front computation *)
  | Pruned  (** range/constraint failure at this configuration (XPDL803) *)
  | Failed  (** evaluation error — no variant, exception, non-finite (XPDL804) *)

type point = {
  pt_index : int;  (** position in the full grid, row-major *)
  pt_bindings : (string * float) list;
  pt_status : status;
  pt_variant : string option;  (** SpMV variant the dispatcher chose *)
  pt_quality : quality_summary;  (** bootstrap degradation-ladder provenance *)
  pt_degraded : bool;
  pt_diags : Diagnostic.t list;
}

type workload = { wl_rows : int; wl_density : float; wl_iterations : int }

let default_workload = { wl_rows = 2048; wl_density = 0.02; wl_iterations = 4 }

type config = {
  jobs : int;  (** evaluation domains; 1 = sequential *)
  seed : int;  (** master seed: sampling stream + per-point machine seeds *)
  plan : plan;
  workload : workload;
  policy : Resilient.policy;  (** bootstrap resilience policy *)
  faults : (int * float) option;  (** (fault seed, rate) meter fault injection *)
}

let default_config =
  {
    jobs = 1;
    seed = 42;
    plan = Exhaustive;
    workload = default_workload;
    policy = { Resilient.default_policy with repetitions = 3 };
    faults = None;
  }

(* The machine seed of a point is a pure function of (sweep seed, grid
   index) — never of evaluation order — so any schedule of any number of
   domains reproduces the same measurements. *)
let point_seed ~seed index =
  let r = Rng.split (Rng.create ~seed) (Fmt.str "dse-point:%d" index) in
  Int64.to_int (Int64.logand (Rng.next_int64 r) 0x3FFFFFFFFFFFFFL)

let prune_codes = [ "XPDL210"; "XPDL211"; "XPDL212"; "XPDL213"; "XPDL215"; "XPDL216" ]

let finite o =
  Float.is_finite o.o_energy && Float.is_finite o.o_time && Float.is_finite o.o_static_power

(** Evaluate one grid point: bind the axis values as external
    configuration, instantiate, analyze, bootstrap resiliently, then
    price the SpMV component on the resulting simulated machine.  Never
    raises; failures become [Pruned]/[Failed] statuses with coded
    diagnostics. *)
let eval_point ~(template : Model.element) ~(cfg : config) ~index ~bindings : point =
  let base =
    {
      pt_index = index;
      pt_bindings = bindings;
      pt_status = Failed;
      pt_variant = None;
      pt_quality = no_quality;
      pt_degraded = false;
      pt_diags = [];
    }
  in
  let env = List.map (fun (n, v) -> (n, Xpdl_expr.Expr.Num v)) bindings in
  match Instantiate.run ~env template with
  | exception exn ->
      {
        base with
        pt_diags =
          [
            Diagnostic.warning ~code:"XPDL804" "point #%d: instantiation raised %s" index
              (Printexc.to_string exn);
          ];
      }
  | model, idiags -> (
      let fatal =
        List.filter
          (fun (d : Diagnostic.t) ->
            Diagnostic.is_error d && List.mem d.Diagnostic.code prune_codes)
          idiags
      in
      if fatal <> [] then
        {
          base with
          pt_status = Pruned;
          pt_diags =
            Diagnostic.info ~code:"XPDL803"
              "point #%d pruned: %d range/constraint failure(s) at this configuration" index
              (List.length fatal)
            :: idiags;
        }
      else
        let work () =
          let model, _links = Analysis.effective_bandwidths model in
          let mseed = point_seed ~seed:cfg.seed index in
          (* bootstrap on its own machine so fault plans and DVFS sweeps
             cannot leak into the pricing run below *)
          let boot_machine = Machine.create ~seed:mseed model in
          (match cfg.faults with
          | Some (fseed, rate) when rate > 0. ->
              Machine.inject_faults boot_machine
                (Faults.create ~seed:(fseed + index) ~rate ())
          | _ -> ());
          let store = Store.of_model model in
          let health = Resilient.run_store ~policy:cfg.policy ~machine:boot_machine store in
          let model = Store.model store in
          let quality = summarize_quality (Resilient.quality_entries model) in
          let degraded =
            quality.q_interpolated + quality.q_inherited + quality.q_unresolved > 0
            || health.Resilient.h_aborted
          in
          let machine = Machine.create ~seed:mseed model in
          let query = Query.of_model model in
          let ctx =
            Spmv.context ~iterations:cfg.workload.wl_iterations ~query ~machine
              ~rows:cfg.workload.wl_rows ~density:cfg.workload.wl_density ()
          in
          let variant, meas = Compose.dispatch Spmv.component ctx in
          let o =
            {
              o_energy = meas.Machine.total_energy;
              o_time = meas.Machine.elapsed;
              o_static_power = Aggregate.static_power model;
            }
          in
          let degraded_diag =
            if degraded then
              [
                Diagnostic.info ~code:"XPDL805"
                  "point #%d bootstrapped below full quality \
                   (measured %d, interpolated %d, inherited %d, unresolved %d)"
                  index quality.q_measured quality.q_interpolated quality.q_inherited
                  quality.q_unresolved;
              ]
            else []
          in
          if not (finite o) then
            {
              base with
              pt_quality = quality;
              pt_degraded = degraded;
              pt_diags =
                Diagnostic.warning ~code:"XPDL804"
                  "point #%d: non-finite objectives; point dropped" index
                :: idiags;
            }
          else
            {
              base with
              pt_status = Evaluated o;
              pt_variant = Some variant;
              pt_quality = quality;
              pt_degraded = degraded;
              pt_diags = degraded_diag @ idiags;
            }
        in
        match work () with
        | p -> p
        | exception exn ->
            {
              base with
              pt_diags =
                Diagnostic.warning ~code:"XPDL804" "point #%d: evaluation failed: %s; point dropped"
                  index (Printexc.to_string exn)
                :: idiags;
            })

(* ------------------------------------------------------------------ *)
(* Parallel evaluation: results land in the slot owned by their grid
   index, so the merged array — and everything derived from it — is
   independent of scheduling. *)

let run_points ~jobs ~eval (indices : int array) : point array =
  let n = Array.length indices in
  let results = Array.make n None in
  Xpdl_kernel.iter ~jobs n (fun slot -> results.(slot) <- Some (eval indices.(slot)));
  Array.map
    (function Some p -> p | None -> invalid_arg "Dse.run_points: unfilled slot")
    results

(* ------------------------------------------------------------------ *)
(* Pareto front over (energy, time, static power), all minimized *)

let dominates a b =
  a.o_energy <= b.o_energy && a.o_time <= b.o_time && a.o_static_power <= b.o_static_power
  && (a.o_energy < b.o_energy || a.o_time < b.o_time || a.o_static_power < b.o_static_power)

(* Sort lexicographically by objectives (index-tiebroken), then admit
   each point against the accepted front only: any dominator sorts
   weakly earlier, and by transitivity some non-dominated dominator is
   already in the front — so the scan is O(n·|front|), not the oracle's
   O(n²) all-pairs check (which the dse-pareto property holds it to). *)
let pareto_front (pts : (int * objectives) list) : int list =
  let sorted =
    List.stable_sort
      (fun (ia, a) (ib, b) ->
        match Float.compare a.o_energy b.o_energy with
        | 0 -> (
            match Float.compare a.o_time b.o_time with
            | 0 -> (
                match Float.compare a.o_static_power b.o_static_power with
                | 0 -> compare ia ib
                | c -> c)
            | c -> c)
        | c -> c)
      pts
  in
  let front =
    List.fold_left
      (fun front (i, o) ->
        if List.exists (fun (_, f) -> dominates f o) front then front else (i, o) :: front)
      [] sorted
  in
  List.sort compare (List.map fst front)

(* ------------------------------------------------------------------ *)
(* Sensitivity: per axis, the relative spread of per-value objective
   means — a cheap main-effect summary that also works on samples. *)

type sensitivity = { sx_axis : string; sx_energy : float; sx_time : float; sx_static : float }

let sensitivities (axes : axis list) (pts : point list) : sensitivity list =
  let evaluated =
    List.filter_map
      (fun p -> match p.pt_status with Evaluated o -> Some (p.pt_bindings, o) | _ -> None)
      pts
  in
  let spread proj =
    (* relative spread of per-axis-value means for one objective *)
    fun ax ->
     let groups =
       Array.map
         (fun v ->
           let hits =
             List.filter_map
               (fun (bindings, o) ->
                 match List.assoc_opt ax.ax_name bindings with
                 | Some bv when Float.equal bv v -> Some (proj o)
                 | _ -> None)
               evaluated
           in
           match hits with
           | [] -> None
           | _ ->
               Some (List.fold_left ( +. ) 0. hits /. float_of_int (List.length hits)))
         ax.ax_values
     in
     let means = Array.to_list groups |> List.filter_map Fun.id in
     match means with
     | [] | [ _ ] -> 0.
     | m :: _ ->
         let lo = List.fold_left Float.min m means
         and hi = List.fold_left Float.max m means in
         let scale = List.fold_left ( +. ) 0. means /. float_of_int (List.length means) in
         if Float.abs scale > 0. then (hi -. lo) /. Float.abs scale else 0.
  in
  List.map
    (fun ax ->
      {
        sx_axis = ax.ax_name;
        sx_energy = spread (fun o -> o.o_energy) ax;
        sx_time = spread (fun o -> o.o_time) ax;
        sx_static = spread (fun o -> o.o_static_power) ax;
      })
    axes

(* ------------------------------------------------------------------ *)
(* The sweep *)

type report = {
  rp_axes : axis list;
  rp_space : int;  (** full grid size *)
  rp_seed : int;
  rp_jobs : int;
  rp_points : point array;  (** selected points, ascending grid index *)
  rp_front : int list;  (** Pareto-optimal grid indices, ascending *)
  rp_sensitivity : sensitivity list;
  rp_evaluated : int;
  rp_pruned : int;
  rp_failed : int;
  rp_degraded : int;
  rp_diags : Diagnostic.t list;  (** sweep-level notes (XPDL806/807) *)
}

let point_of_index (r : report) index =
  let n = Array.length r.rp_points in
  let rec bs lo hi =
    if lo >= hi then None
    else
      let mid = (lo + hi) / 2 in
      let p = r.rp_points.(mid) in
      if p.pt_index = index then Some p else if p.pt_index < index then bs (mid + 1) hi else bs lo mid
  in
  bs 0 n

(** Sweep [template] over [axes] (default: derived from the template's
    ranged params).  Errors only on an unusable sweep specification; a
    sweep whose every point fails still returns a report (empty front,
    XPDL807). *)
let run ?(config = default_config) ?axes (template : Model.element) :
    (report, Diagnostic.t) result =
  let axes = match axes with Some a -> a | None -> axes_of_template template in
  match space axes with
  | Error d -> Error d
  | Ok sp ->
      let indices, plan_diags = select_indices ~seed:config.seed sp config.plan in
      let eval index = eval_point ~template ~cfg:config ~index ~bindings:(decode sp index) in
      let points = run_points ~jobs:config.jobs ~eval indices in
      let evaluated =
        Array.to_list points
        |> List.filter_map (fun p ->
               match p.pt_status with Evaluated o -> Some (p.pt_index, o) | _ -> None)
      in
      let front = pareto_front evaluated in
      let count f = Array.fold_left (fun acc p -> if f p then acc + 1 else acc) 0 points in
      let diags =
        plan_diags
        @
        if front = [] then
          [
            Diagnostic.info ~code:"XPDL807"
              "front empty: every selected point was pruned or failed";
          ]
        else []
      in
      Ok
        {
          rp_axes = axes;
          rp_space = sp.sp_total;
          rp_seed = config.seed;
          rp_jobs = config.jobs;
          rp_points = points;
          rp_front = front;
          rp_sensitivity = sensitivities axes (Array.to_list points);
          rp_evaluated = List.length evaluated;
          rp_pruned = count (fun p -> p.pt_status = Pruned);
          rp_failed = count (fun p -> p.pt_status = Failed);
          rp_degraded = count (fun p -> p.pt_degraded);
          rp_diags = diags;
        }

(** Lint-style exit semantics for the CLI and CI gates: a sweep that
    produced no usable front (everything pruned/failed) is a failure. *)
let exit_code (r : report) = if r.rp_front = [] then 1 else 0

(* ------------------------------------------------------------------ *)
(* Reports: canonical JSON (deterministic float spellings, stable key
   order, no wall-clock fields) and a human-readable text view.  The
   parallel-determinism drill cmp-compares this JSON byte-for-byte;
   the CLI appends its own "timing" member, which consumers strip. *)

let status_name = function Evaluated _ -> "ok" | Pruned -> "pruned" | Failed -> "failed"

let quality_to_json q =
  Fmt.str {|{"measured":%d,"interpolated":%d,"inherited":%d,"unresolved":%d}|} q.q_measured
    q.q_interpolated q.q_inherited q.q_unresolved

let point_to_json p =
  let bindings =
    String.concat ","
      (List.map
         (fun (n, v) ->
           Fmt.str "%s:%s" (Xpdl_kernel.json_string n) (Xpdl_kernel.json_float v))
         p.pt_bindings)
  in
  let objectives =
    match p.pt_status with
    | Evaluated o ->
        Fmt.str {|,"energy":%s,"time":%s,"static_power":%s|}
          (Xpdl_kernel.json_float o.o_energy) (Xpdl_kernel.json_float o.o_time)
          (Xpdl_kernel.json_float o.o_static_power)
    | Pruned | Failed -> ""
  in
  let variant =
    match p.pt_variant with
    | Some v -> Fmt.str {|,"variant":%s|} (Xpdl_kernel.json_string v)
    | None -> ""
  in
  Fmt.str
    {|{"index":%d,"bindings":{%s},"status":"%s"%s%s,"degraded":%b,"quality":%s,"diagnostics":[%s]}|}
    p.pt_index bindings (status_name p.pt_status) objectives variant p.pt_degraded
    (quality_to_json p.pt_quality)
    (String.concat "," (List.map Diagnostic.to_json p.pt_diags))

let report_to_json (r : report) =
  let axes =
    String.concat ","
      (List.map
         (fun ax ->
           Fmt.str {|{"name":%s,"values":[%s]}|} (Xpdl_kernel.json_string ax.ax_name)
             (String.concat "," (Array.to_list (Array.map Xpdl_kernel.json_float ax.ax_values))))
         r.rp_axes)
  in
  let sens =
    String.concat ","
      (List.map
         (fun s ->
           Fmt.str {|{"axis":%s,"energy":%s,"time":%s,"static_power":%s}|}
             (Xpdl_kernel.json_string s.sx_axis) (Xpdl_kernel.json_float s.sx_energy)
             (Xpdl_kernel.json_float s.sx_time) (Xpdl_kernel.json_float s.sx_static))
         r.rp_sensitivity)
  in
  Fmt.str
    {|{"axes":[%s],"space":%d,"seed":%d,"points":[%s],"front":[%s],"sensitivity":[%s],"evaluated":%d,"pruned":%d,"errors":%d,"degraded":%d,"diagnostics":[%s]}|}
    axes r.rp_space r.rp_seed
    (String.concat "," (Array.to_list (Array.map point_to_json r.rp_points)))
    (String.concat "," (List.map string_of_int r.rp_front))
    sens r.rp_evaluated r.rp_pruned r.rp_failed r.rp_degraded
    (String.concat "," (List.map Diagnostic.to_json r.rp_diags))

let pp_bindings ppf bindings =
  Fmt.pf ppf "%a"
    Fmt.(list ~sep:(any " ") (fun ppf (n, v) -> Fmt.pf ppf "%s=%g" n v))
    bindings

let pp_report ppf (r : report) =
  Fmt.pf ppf "design space: %d points over %d axes (%s); %d selected@." r.rp_space
    (List.length r.rp_axes)
    (String.concat " x " (List.map (fun a -> a.ax_name) r.rp_axes))
    (Array.length r.rp_points);
  Fmt.pf ppf "evaluated %d, pruned %d, failed %d, degraded %d@." r.rp_evaluated r.rp_pruned
    r.rp_failed r.rp_degraded;
  Fmt.pf ppf "Pareto front (%d point%s):@." (List.length r.rp_front)
    (if List.length r.rp_front = 1 then "" else "s");
  List.iter
    (fun i ->
      match point_of_index r i with
      | Some ({ pt_status = Evaluated o; _ } as p) ->
          Fmt.pf ppf "  #%-4d %-9s E=%.4g J  T=%.4g s  P=%.4g W  [%a]%s@." i
            (Option.value ~default:"-" p.pt_variant)
            o.o_energy o.o_time o.o_static_power pp_bindings p.pt_bindings
            (if p.pt_degraded then "  (degraded)" else "")
      | _ -> ())
    r.rp_front;
  Fmt.pf ppf "sensitivity (relative spread of per-value means):@.";
  List.iter
    (fun s ->
      Fmt.pf ppf "  %-12s energy %.3f  time %.3f  static %.3f@." s.sx_axis s.sx_energy s.sx_time
        s.sx_static)
    r.rp_sensitivity;
  List.iter (fun d -> Fmt.pf ppf "%a@." Diagnostic.pp d) r.rp_diags
