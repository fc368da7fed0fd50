(** The dse_sweep workload: [Dse.run] with [Dse.default_config] over a
    dense SpMV sweep template (280 grid points, 64 pruned by its power
    budget), sweep seed = [--seed].  Many small models, each through
    instantiate → resilient store bootstrap → query → SpMV dispatch: the
    opposite of one huge composition.  An op is one grid point, so a run
    times tens of thousands of ops and its p99 is not one slow sweep. *)

open Xpdl_core
module Dse = Xpdl_dse.Dse
module Analysis = Xpdl_toolchain.Analysis
module Machine = Xpdl_simhw.Machine
module Store = Xpdl_store.Store
module Resilient = Xpdl_microbench.Resilient
module Query = Xpdl_query.Query
module Spmv = Xpdl_compose.Spmv
module Compose = Xpdl_compose.Compose
module Aggregate = Xpdl_energy.Aggregate

let template_file = "benchmark/workloads/spmv_sweep_dense.xpdl"

let load_template () =
  let tmpl, diags = Elaborate.of_xml (Xpdl_xml.Parse.file_exn template_file) in
  if List.exists Diagnostic.is_error diags then failwith (template_file ^ " does not elaborate");
  tmpl

let config ~seed ~jobs =
  {
    Dse.default_config with
    Dse.jobs;
    seed;
    workload = { Dse.wl_rows = 1024; wl_density = 0.05; wl_iterations = 2 };
  }

let sweep tmpl cfg =
  match Dse.run ~config:cfg tmpl with
  | Ok r -> r
  | Error d -> failwith (Fmt.str "sweep failed: %a" Diagnostic.pp d)

(* The timed run: sweeps of [reference]'s grid for about [seconds], at
   least [min_ops] of them, with [setups] set-ups spread over the run
   (see [Bench.repeat_with_setups]).  A sweep is [Dse.run]'s jobs-1
   path: every selected point through [Dse.eval_point] in grid order,
   each timed on its own, then the front and the sensitivities.  Each
   sweep starts from a compacted heap.  Each point must equal
   [reference]'s, and the sweep must rebuild [reference]'s report
   exactly.  Latency is per point; throughput is the median over sweeps
   of points per second of sweep time, which, like the median latency,
   does not move when less than half of the run falls in one of the
   host's slow phases.  Returns the metrics and the set-up times. *)
let timed_sweeps tally ~seconds ~min_ops ~setups setup tmpl (cfg : Dse.config)
    (reference : Dse.report) =
  let sp =
    match Dse.space reference.Dse.rp_axes with
    | Ok sp -> sp
    | Error d -> failwith (Fmt.str "sweep space: %a" Diagnostic.pp d)
  in
  let indices, _ = Dse.select_indices ~seed:cfg.Dse.seed sp cfg.plan in
  let reference_json = Dse.report_to_json reference in
  let expected = Array.map Dse.point_to_json reference.rp_points in
  let points = Bench.Samples.create () and sweeps = Bench.Samples.create () in
  let _, setup_times =
    Bench.repeat_with_setups ~seconds ~min_ops ~setups setup (fun _ ->
        Gc.compact ();
        let t0 = Bench.now () in
        let pts =
          Array.map
            (fun index ->
              let s = Bench.now () in
              let p = Dse.eval_point ~template:tmpl ~cfg ~index ~bindings:(Dse.decode sp index) in
              Bench.Samples.add points (Bench.now () -. s);
              p)
            indices
        in
        let evaluated =
          Array.to_list pts
          |> List.filter_map (fun (p : Dse.point) ->
                 match p.pt_status with Dse.Evaluated o -> Some (p.pt_index, o) | _ -> None)
        in
        let front = Dse.pareto_front evaluated in
        let sensitivity = Dse.sensitivities reference.rp_axes (Array.to_list pts) in
        Bench.Samples.add sweeps (Bench.now () -. t0);
        Array.iteri
          (fun i p ->
            Bench.record tally
              (String.equal (Dse.point_to_json p) expected.(i))
              "point #%d differs from the reference sweep" p.Dse.pt_index)
          pts;
        let r = { reference with Dse.rp_points = pts; rp_front = front; rp_sensitivity = sensitivity } in
        Bench.record tally
          (String.equal (Dse.report_to_json r) reference_json)
          "the front or the sensitivities differ from the reference sweep")
  in
  let times = Bench.Samples.to_array points in
  ( [
      ("latency_p50_ms", Bench.median times *. 1e3);
      ("latency_p99_ms", Bench.percentile times 0.99 *. 1e3);
      ( "throughput_ops_s",
        float_of_int (Array.length indices) /. Bench.median (Bench.Samples.to_array sweeps) );
    ],
    setup_times )

(* A point's outcome, rendered bit-exactly for comparisons. *)
let outcome_key (status : Dse.status) variant =
  match status with
  | Dse.Evaluated o ->
      Fmt.str "ok %h %h %h %s" o.Dse.o_energy o.o_time o.o_static_power
        (Option.value ~default:"-" variant)
  | Pruned -> "pruned"
  | Failed -> "failed"

(* [Dse.eval_point]'s calls for one point, each inside a span (no fault
   plan, as in the default configuration).  Returns the point's outcome
   key, its ISA count and its runtime-model node count. *)
let replay_point tr ~tmpl ~(cfg : Dse.config) (p : Dse.point) =
  let span name f = Bench.span tr name f in
  let env = List.map (fun (n, v) -> (n, Xpdl_expr.Expr.Num v)) p.Dse.pt_bindings in
  let model, idiags = span "core.instantiate" (fun () -> Instantiate.run ~env tmpl) in
  if
    List.exists
      (fun (d : Diagnostic.t) -> Diagnostic.is_error d && List.mem d.Diagnostic.code Dse.prune_codes)
      idiags
  then (outcome_key Dse.Pruned None, 0, 0)
  else begin
    let model, _links = span "toolchain.analysis" (fun () -> Analysis.effective_bandwidths model) in
    let mseed = Dse.point_seed ~seed:cfg.Dse.seed p.pt_index in
    let boot = span "simhw.machine_create" (fun () -> Machine.create ~seed:mseed model) in
    let store = span "store.of_model" (fun () -> Store.of_model model) in
    ignore
      (span "microbench.bootstrap" (fun () ->
           Resilient.run_store ~policy:cfg.policy ~machine:boot store));
    let model = Store.model store in
    ignore (Dse.summarize_quality (Resilient.quality_entries model));
    let machine = span "simhw.machine_create" (fun () -> Machine.create ~seed:mseed model) in
    let query = span "query.of_model" (fun () -> Query.of_model model) in
    let variant, meas =
      span "compose.dispatch" (fun () ->
          Compose.dispatch Spmv.component
            (Spmv.context ~iterations:cfg.workload.wl_iterations ~query ~machine
               ~rows:cfg.workload.wl_rows ~density:cfg.workload.wl_density ()))
    in
    let static = span "energy.synthesize" (fun () -> Aggregate.static_power model) in
    let o =
      { Dse.o_energy = meas.Machine.total_energy; o_time = meas.Machine.elapsed; o_static_power = static }
    in
    ( outcome_key (if Dse.finite o then Dse.Evaluated o else Dse.Failed) (Some variant),
      List.length (Power.of_element model).Power.pm_isas,
      Query.size query )
  end

let covering =
  [
    "core.instantiate"; "toolchain.analysis"; "simhw.machine_create"; "store.of_model";
    "microbench.bootstrap"; "query.of_model"; "compose.dispatch"; "energy.synthesize"; "dse.front";
  ]

let run (cfg : Bench.config) =
  let tally = Bench.tally () in
  let seq = config ~seed:cfg.seed ~jobs:1 in
  (* set-up: template elaboration plus a warm-up sweep; a timed run sets
     up eight more times, spread over the run *)
  let set_up () =
    let tmpl = load_template () in
    (tmpl, sweep tmpl seq)
  in
  let (tmpl, reference), first_setup = Bench.timed set_up in
  let reference_json = Dse.report_to_json reference in
  Bench.record tally (reference.Dse.rp_front <> [] && reference.rp_failed = 0)
    "the reference sweep has failed points or an empty front";
  let check r =
    Bench.record tally (String.equal (Dse.report_to_json r) reference_json)
      "sweep report differs from the reference"
  in
  let parallel_check () =
    let r, dt =
      Bench.timed_compacted (fun () -> sweep tmpl (config ~seed:cfg.seed ~jobs:Bench.nproc))
    in
    check r;
    dt
  in
  let min_ops = if cfg.smoke then 1 else 3 in
  if not cfg.trace then begin
    let later = ref [] in
    let latency, setup_times =
      timed_sweeps tally ~seconds:cfg.seconds ~min_ops ~setups:8
        (fun () -> later := snd (set_up ()) :: !later)
        tmpl seq reference
    in
    let rss = Bench.peak_rss_mb "self" in
    List.iter check !later;
    ignore (parallel_check ());
    ( tally,
      ("setup_s", Bench.median (Array.append [| first_setup |] setup_times))
      :: ("peak_rss_mb", rss) :: latency )
  end
  else begin
    (* the parallel arm: jobs = nproc against jobs = 1, alternated *)
    let arms =
      Array.init 3 (fun _ ->
          let r, t1 = Bench.timed_compacted (fun () -> sweep tmpl seq) in
          check r;
          (t1, parallel_check ()))
    in
    let speedup = Bench.median (Array.map fst arms) /. Bench.median (Array.map snd arms) in
    let tr = Bench.tracer () in
    let untraced = ref 0. and alloc = ref 0. and isas = ref 0 and nodes = ref 0 in
    let pairs =
      Bench.repeat ~seconds:cfg.seconds ~min_ops:1 (fun _ ->
          let r, dt = Bench.timed_compacted (fun () -> sweep tmpl seq) in
          untraced := !untraced +. dt;
          check r;
          Gc.compact ();
          let a0 = Gc.allocated_bytes () in
          let same =
            Array.for_all
              (fun (p : Dse.point) ->
                let key, n_isas, n_nodes = replay_point tr ~tmpl ~cfg:seq p in
                isas := max !isas n_isas;
                nodes := max !nodes n_nodes;
                String.equal key (outcome_key p.Dse.pt_status p.pt_variant))
              reference.rp_points
          in
          let evaluated =
            Array.to_list reference.rp_points
            |> List.filter_map (fun (p : Dse.point) ->
                   match p.pt_status with Dse.Evaluated o -> Some (p.pt_index, o) | _ -> None)
          in
          let front =
            Bench.span tr "dse.front" (fun () ->
                ignore
                  (Dse.sensitivities reference.rp_axes (Array.to_list reference.rp_points));
                Dse.pareto_front evaluated)
          in
          alloc := !alloc +. (Gc.allocated_bytes () -. a0);
          Bench.record tally (same && front = reference.rp_front)
            "replayed points differ from the untraced sweep")
    in
    (* an op is one grid point, as in the timed run *)
    let ops = pairs * Array.length reference.rp_points in
    ( tally,
      Bench.shares tr ~ops ~op_mean:(!untraced /. float_of_int ops) ~covering
      @ [
          ("gc.alloc_mb_per_op", !alloc /. float_of_int ops /. 1e6);
          ("toolchain.ir_nodes", float_of_int !nodes);
          ("microbench.isas_measured", float_of_int !isas);
          ( "dse.useful_frac",
            float_of_int reference.rp_evaluated /. float_of_int (Array.length reference.rp_points) );
          ("dse.parallel_speedup", speedup);
        ] )
  end
