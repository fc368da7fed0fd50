(* xpdltool — the XPDL processing tool as a command-line interface.

   Subcommands mirror the toolchain stages of Sec. IV:

     list        index the repository and list descriptors
     validate    parse + elaborate + validate one descriptor or system
     compose     resolve references, expand groups, print the instance tree
     analyze     static analysis report (effective bandwidths, components)
     process     full pipeline -> runtime-model file (with bootstrap)
     bootstrap   fault-tolerant deployment bootstrap with a health report
     repo        persistent-index repository operations (index/stats/validate-all)
     query       load a runtime-model file and answer queries
     serve       concurrent model-query server with MVCC snapshots
     loadgen     drive a running server with a mixed workload
     control     derive the control relation and match platform patterns
     emit-cpp    generate the C++ query-API header from the schema
     emit-uml    emit the PlantUML view (meta-model or a composed system)
     emit-xsd    emit the xpdl.xsd schema document
     emit-drivers  generate microbenchmark driver code for a system
     to-pdl      downgrade a composed system to a PEPPHER PDL document *)

open Cmdliner
open Xpdl_core

let setup_logs () =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ())

(* The --models roots, or the bundled models/ directory when none is given. *)
let roots = function [] -> Option.to_list (Xpdl_repo.Repo.locate_models ()) | ps -> ps

let repo_of_paths paths =
  let repo = Xpdl_repo.Repo.create () in
  List.iter (Xpdl_repo.Repo.add_root repo) (roots paths);
  repo

let models_arg =
  let doc = "Repository root directory (repeatable); defaults to ./models." in
  Arg.(value & opt_all dir [] & info [ "m"; "models" ] ~docv:"DIR" ~doc)

let system_arg =
  let doc = "Name (id) of the concrete system model." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SYSTEM" ~doc)

(* --- diagnostic output options (validate / validate-all / compose) --- *)

type diag_format = Text | Json

let format_arg =
  let fmt = Arg.enum [ ("text", Text); ("json", Json) ] in
  let doc = "Diagnostic output format ('text' or 'json').  JSON goes to stdout as one report object; see docs/DIAGNOSTICS.md for the schema." in
  Arg.(value & opt fmt Text & info [ "format" ] ~docv:"FORMAT" ~doc)

let max_errors_arg =
  let doc = "Stop reporting after $(docv) errors (an info line summarizes the rest)." in
  Arg.(value & opt (some int) None & info [ "max-errors" ] ~docv:"N" ~doc)

(* Render diagnostics in the chosen format and turn them into an exit
   status: 0 when error-free (warnings allowed), 1 otherwise.  Text goes
   to stderr, JSON to stdout for machine consumers (CI lint). *)
let emit_diags ?(format = Text) ?max_errors diags =
  let shown =
    match max_errors with Some n -> Diagnostic.cap ~max_errors:n diags | None -> diags
  in
  (match format with
  | Json -> Fmt.pr "%s@." (Diagnostic.list_to_json shown)
  | Text -> List.iter (fun d -> Fmt.epr "%a@." Diagnostic.pp d) shown);
  if Diagnostic.all_ok diags then 0 else 1

let report_diags diags = emit_diags diags

(* Continue with the value, or print the error on stderr and exit 1. *)
let ( let* ) r k =
  match r with
  | Ok v -> k v
  | Error msg ->
      Fmt.epr "%s@." msg;
      1

(* Parse --set key=value deployment overrides; numeric values may carry
   a unit suffix separated by a colon (L1size=32:KB). *)
let parse_config (kvs : string list) : (Xpdl_core.Instantiate.env, string) result =
  let parse kv =
    match String.index_opt kv '=' with
    | None -> Error (Fmt.str "malformed --set %S (expected key=value)" kv)
    | Some i -> (
        let key = String.sub kv 0 i in
        let v = String.sub kv (i + 1) (String.length kv - i - 1) in
        match String.index_opt v ':' with
        | Some j -> (
            let num = String.sub v 0 j and u = String.sub v (j + 1) (String.length v - j - 1) in
            match Xpdl_units.Units.of_string_opt num u with
            | Some q -> Ok (key, Xpdl_expr.Expr.Num (Xpdl_units.Units.value q))
            | None -> Error (Fmt.str "--set %s: cannot parse %S as a quantity" key v))
        | None -> (
            match float_of_string_opt v with
            | Some f -> Ok (key, Xpdl_expr.Expr.Num f)
            | None -> Ok (key, Xpdl_expr.Expr.Str v)))
  in
  List.fold_left
    (fun acc kv ->
      match (acc, parse kv) with
      | Ok l, Ok b -> Ok (l @ [ b ])
      | (Error _ as e), _ -> e
      | _, (Error _ as e) -> Error (Result.get_error e |> Fmt.str "%s"))
    (Ok []) kvs

let set_arg =
  let doc =
    "Deployment-time parameter override, key=value (repeatable); quantities as value:unit,      e.g. --set L1size=16:KB."
  in
  Arg.(value & opt_all string [] & info [ "s"; "set" ] ~docv:"KEY=VALUE" ~doc)


(* --- list --- *)

let list_cmd =
  let run paths =
    setup_logs ();
    let repo = repo_of_paths paths in
    List.iter
      (fun ident ->
        match Xpdl_repo.Repo.find_entry repo ident with
        | Some e ->
            Fmt.pr "%-28s %-14s %s@." ident
              (Schema.tag_of_kind e.Xpdl_repo.Repo.ent_element.Model.kind)
              e.Xpdl_repo.Repo.ent_file
        | None -> ())
      (Xpdl_repo.Repo.identifiers repo);
    Fmt.pr "%d descriptors@." (Xpdl_repo.Repo.size repo);
    report_diags (Diagnostic.errors (Xpdl_repo.Repo.diagnostics repo))
  in
  Cmd.v (Cmd.info "list" ~doc:"List all descriptors in the model repository")
    Term.(const run $ models_arg)

(* --- validate --- *)

(* Validate a descriptor file on disk: parse with error recovery so one
   run reports every syntax error, then elaborate, instantiate (range and
   constraint checks) and validate whatever could be recovered. *)
let validate_file repo path format max_errors =
  match Xpdl_xml.Parse.file_recover ~lenient:true path with
  | Error msg ->
      emit_diags ~format ?max_errors
        [ Diagnostic.error ~code:"XPDL303" "cannot load %s: %s" path msg ]
  | Ok (root, parse_errors) ->
      let diags = ref (List.map Diagnostic.of_parse_error parse_errors) in
      let push ds = diags := !diags @ ds in
      (match root with
      | None -> ()
      | Some x ->
          let nodes =
            match x.Xpdl_xml.Dom.tag with
            | "xpdl" | "repository" -> Xpdl_xml.Dom.child_elements x
            | _ -> [ x ]
          in
          List.iter
            (fun node ->
              let e, ediags = Elaborate.of_xml node in
              push ediags;
              let expanded, idiags = Instantiate.run e in
              push idiags;
              push (Validate.run ~lookup:(Xpdl_repo.Repo.lookup repo) expanded))
            nodes);
      if format = Text && !diags = [] then Fmt.pr "%s: OK@." path;
      emit_diags ~format ?max_errors !diags

let validate_cmd =
  let target_arg =
    let doc = "Name (id) of an indexed descriptor, or a path to an .xpdl file." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SYSTEM|FILE" ~doc)
  in
  let run paths format max_errors name =
    setup_logs ();
    let repo = repo_of_paths paths in
    if Sys.file_exists name && not (Sys.is_directory name) then
      validate_file repo name format max_errors
    else
      match Xpdl_repo.Repo.find repo name with
      | None ->
          Fmt.epr "no descriptor %S@." name;
          1
      | Some e ->
          let diags = Validate.run ~lookup:(Xpdl_repo.Repo.lookup repo) e in
          if format = Text && diags = [] then Fmt.pr "%s: OK@." name;
          emit_diags ~format ?max_errors diags
  in
  Cmd.v (Cmd.info "validate" ~doc:"Validate a descriptor (by name or file) against the schema")
    Term.(const run $ models_arg $ format_arg $ max_errors_arg $ target_arg)

(* --- repo: persistent-index repository operations --- *)

(* Like repo_of_paths but through the .xpdlidx sidecars: names and
   diagnostics come from the index, descriptors materialize on demand. *)
let repo_open_paths paths =
  let repo = Xpdl_repo.Repo.create () in
  List.iter (Xpdl_repo.Repo.open_root repo) (roots paths);
  repo

let jobs_arg =
  let doc = "Worker domains; any value produces byte-identical output." in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let repo_index_cmd =
  let run paths =
    setup_logs ();
    let code = ref 0 in
    List.iter
      (fun dir ->
        (* one repository per root: each sidecar indexes exactly one root *)
        let repo = Xpdl_repo.Repo.create () in
        Xpdl_repo.Repo.open_root repo dir;
        let s = Xpdl_repo.Repo.stats repo in
        Fmt.pr "%s: %d descriptors, %d file%s parsed, %d reused from index@." dir s.descriptors
          s.parsed_files
          (if s.parsed_files = 1 then "" else "s")
          s.reused_files;
        (* print the full stream (XPDL311 rebuild notices are warnings);
           the exit code still reflects errors only *)
        if emit_diags (Xpdl_repo.Repo.diagnostics repo) <> 0 then code := 1)
      (roots paths);
    !code
  in
  Cmd.v
    (Cmd.info "index"
       ~doc:"Build or refresh the persistent .xpdlidx sidecar of each repository root")
    Term.(const run $ models_arg)

let repo_stats_cmd =
  let run paths format =
    setup_logs ();
    let repo = repo_open_paths paths in
    (* force one lookup so laziness is visible in the counters *)
    let s = Xpdl_repo.Repo.stats repo in
    let quarantined = Xpdl_repo.Repo.quarantined_files repo in
    let diags = Xpdl_repo.Repo.diagnostics repo in
    (match format with
    | Json ->
        Fmt.pr
          {|{"descriptors":%d,"loaded":%d,"cached":%d,"pending":%d,"parsed_files":%d,"reused_files":%d,"materialized":%d,"evictions":%d,"quarantined":%d,"diagnostics":%d}@.|}
          s.descriptors s.loaded s.cached s.pending s.parsed_files s.reused_files s.materialized
          s.evictions (List.length quarantined) (List.length diags)
    | Text ->
        Fmt.pr "descriptors:   %d (%d loaded, %d cached, %d pending)@." s.descriptors s.loaded
          s.cached s.pending;
        Fmt.pr "files:         %d parsed, %d reused from index@." s.parsed_files s.reused_files;
        Fmt.pr "cache:         %d materialized, %d evictions@." s.materialized s.evictions;
        Fmt.pr "quarantined:   %d@." (List.length quarantined);
        Fmt.pr "diagnostics:   %d@." (List.length diags));
    if Diagnostic.all_ok diags then 0 else 1
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Open roots through their indexes and report lazy-loading counters")
    Term.(const run $ models_arg $ format_arg)

(* --- validate-all (top level and under repo) --- *)

(* One renderer for both validate-all commands.  [load_diags] is the
   repository's stream captured before validation: materialization order
   under N domains may interleave later additions differently, and the
   output must be byte-identical for any --jobs. *)
let emit_validation ~format ?max_errors repo load_diags results =
  let failures = List.filter (fun r -> r.Xpdl_repo.Repo.va_errors <> []) results in
  let quarantined = Xpdl_repo.Repo.quarantined_files repo in
  match format with
  | Text ->
      List.iter
        (fun (r : Xpdl_repo.Repo.validation) ->
          Fmt.pr "%-28s %-14s FAIL@." r.va_ident r.va_kind;
          List.iter (fun d -> Fmt.pr "  %a@." Diagnostic.pp d) r.va_errors)
        failures;
      Fmt.pr "%d descriptors checked, %d with errors, %d file%s quarantined at load@."
        (List.length results) (List.length failures) (List.length quarantined)
        (if List.length quarantined = 1 then "" else "s");
      List.iter (fun f -> Fmt.pr "  quarantined: %s@." f) quarantined;
      if failures = [] && Diagnostic.all_ok load_diags then 0 else 1
  | Json ->
      emit_diags ~format:Json ?max_errors
        (load_diags @ List.concat_map (fun r -> r.Xpdl_repo.Repo.va_errors) failures)

let validate_all_cmd =
  let run paths format max_errors =
    setup_logs ();
    let repo = repo_of_paths paths in
    let load_diags = Xpdl_repo.Repo.diagnostics repo in
    emit_validation ~format ?max_errors repo load_diags (Xpdl_repo.Repo.validate_all ~jobs:1 repo)
  in
  Cmd.v
    (Cmd.info "validate-all" ~doc:"Validate every descriptor in the repository")
    Term.(const run $ models_arg $ format_arg $ max_errors_arg)

let repo_validate_all_cmd =
  let run paths format max_errors jobs =
    setup_logs ();
    let repo = repo_open_paths paths in
    let load_diags = Xpdl_repo.Repo.diagnostics repo in
    emit_validation ~format ?max_errors repo load_diags (Xpdl_repo.Repo.validate_all ~jobs repo)
  in
  Cmd.v
    (Cmd.info "validate-all"
       ~doc:
         "Validate every descriptor through the index, sharded over --jobs OCaml domains with \
          deterministic (jobs-independent) output")
    Term.(const run $ models_arg $ format_arg $ max_errors_arg $ jobs_arg)

let repo_cmd =
  Cmd.group
    (Cmd.info "repo"
       ~doc:
         "Fleet-scale repository operations over the persistent .xpdlidx index: build/refresh \
          sidecars, inspect lazy-loading counters, validate everything in parallel (see \
          docs/REPOSITORY.md)")
    [ repo_index_cmd; repo_stats_cmd; repo_validate_all_cmd ]

(* --- compose --- *)

let compose_cmd =
  let summary =
    let doc = "Print a summary instead of the full instance tree." in
    Arg.(value & flag & info [ "summary" ] ~doc)
  in
  let run paths format max_errors name summary_only sets =
    setup_logs ();
    let repo = repo_of_paths paths in
    let* config = parse_config sets in
    let* c = Xpdl_repo.Repo.compose_by_name ~config repo name in
    (* in JSON mode stdout carries only the diagnostics report, so it
       stays machine-parseable; the instance tree is not printed *)
    if format = Text then begin
      if summary_only then
        Fmt.pr "%s: %d elements, %d cores, %.1f W static, %d descriptors used@." name
          (Model.size c.Xpdl_repo.Repo.model)
          (List.length (Model.hardware_elements_of_kind Schema.Core c.Xpdl_repo.Repo.model))
          (Xpdl_simhw.Machine.total_static_power c.Xpdl_repo.Repo.model)
          (List.length c.Xpdl_repo.Repo.descriptors_used)
      else
        Fmt.pr "%s@."
          (Xpdl_xml.Print.to_string (Model.to_xml c.Xpdl_repo.Repo.model))
    end;
    emit_diags ~format ?max_errors c.Xpdl_repo.Repo.comp_diags
  in
  Cmd.v (Cmd.info "compose" ~doc:"Compose a concrete system from the repository")
    Term.(const run $ models_arg $ format_arg $ max_errors_arg $ system_arg $ summary $ set_arg)

(* --- analyze --- *)

let analyze_cmd =
  let run paths name =
    setup_logs ();
    let repo = repo_of_paths paths in
    let* c = Xpdl_repo.Repo.compose_by_name repo name in
    let _, reports = Xpdl_toolchain.Analysis.effective_bandwidths c.Xpdl_repo.Repo.model in
    Fmt.pr "interconnect analysis for %s:@." name;
    List.iter
      (fun (r : Xpdl_toolchain.Analysis.link_report) ->
        Fmt.pr "  %-14s %-10s -> %-10s declared %s effective %s%s@."
          r.lr_ident
          (Option.value ~default:"?" r.lr_head)
          (Option.value ~default:"?" r.lr_tail)
          (match r.lr_declared with
          | Some b -> Fmt.str "%.2f GiB/s" (b /. (1024. ** 3.))
          | None -> "-")
          (match r.lr_effective with
          | Some b -> Fmt.str "%.2f GiB/s" (b /. (1024. ** 3.))
          | None -> "-")
          (if r.lr_downgraded then "  [DOWNGRADED]" else ""))
      reports;
    let g = Xpdl_toolchain.Analysis.build_graph c.Xpdl_repo.Repo.model in
    let comps = Xpdl_toolchain.Analysis.connected_components g in
    Fmt.pr "communication graph: %d nodes, %d components@." (List.length g.g_nodes)
      (List.length comps);
    0
  in
  Cmd.v (Cmd.info "analyze" ~doc:"Static analysis of a composed system")
    Term.(const run $ models_arg $ system_arg)

(* --- process --- *)

let process_cmd =
  let output =
    let doc = "Output runtime-model file." in
    Arg.(value & opt string "runtime_model.xrt" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let no_bootstrap =
    let doc = "Skip the microbenchmarking bootstrap." in
    Arg.(value & flag & info [ "no-bootstrap" ] ~doc)
  in
  let drivers =
    let doc = "Also emit microbenchmark driver code into $(docv)." in
    Arg.(value & opt (some string) None & info [ "emit-drivers" ] ~docv:"DIR" ~doc)
  in
  let run paths name output no_bootstrap drivers sets =
    setup_logs ();
    let repo = repo_of_paths paths in
    let* parameter_config = parse_config sets in
    let config =
      {
        Xpdl_toolchain.Pipeline.default_config with
        run_bootstrap = not no_bootstrap;
        emit_drivers_to = drivers;
        parameter_config;
      }
    in
    let* report = Xpdl_toolchain.Pipeline.run_to_file ~config ~repo ~system:name ~output () in
    Fmt.pr "%s -> %s (%d nodes, %d bytes)@." name output
      (Xpdl_toolchain.Ir.size report.Xpdl_toolchain.Pipeline.runtime_model)
      report.Xpdl_toolchain.Pipeline.runtime_model_bytes;
    Fmt.pr "%a" Xpdl_toolchain.Pipeline.pp_timings report.Xpdl_toolchain.Pipeline.timings;
    List.iter
      (fun (r : Xpdl_microbench.Bootstrap.result) ->
        Fmt.pr "  derived %-10s = %a@." r.instruction Xpdl_microbench.Stats.pp_summary
          r.energy)
      report.Xpdl_toolchain.Pipeline.bootstrap_results;
    report_diags report.Xpdl_toolchain.Pipeline.diagnostics
  in
  Cmd.v
    (Cmd.info "process" ~doc:"Run the full pipeline and write the runtime model")
    Term.(const run $ models_arg $ system_arg $ output $ no_bootstrap $ drivers $ set_arg)

(* --- bootstrap --- *)

let bootstrap_cmd =
  let deadline =
    let doc = "Per-benchmark deadline in simulated seconds." in
    Arg.(value & opt float Xpdl_microbench.Resilient.default_policy.deadline
         & info [ "deadline" ] ~docv:"S" ~doc)
  in
  let budget =
    let doc = "Suite-level time budget in simulated seconds." in
    Arg.(value & opt float Xpdl_microbench.Resilient.default_policy.budget
         & info [ "budget" ] ~docv:"S" ~doc)
  in
  let retries =
    let doc = "Extra attempts after a failed measurement." in
    Arg.(value & opt int Xpdl_microbench.Resilient.default_policy.retries
         & info [ "retries" ] ~docv:"N" ~doc)
  in
  let fail_fast =
    let doc = "Abort the suite at the first quarantined benchmark and exit nonzero." in
    Arg.(value & flag & info [ "fail-fast" ] ~doc)
  in
  let seed =
    let doc = "Machine seed (fixes the simulated meter's noise stream)." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let fault_rate =
    let doc =
      "Inject meter faults: the probability that any single meter read hangs, returns \
       NaN/outlier/stuck values, or drops a core (0 disables injection)."
    in
    Arg.(value & opt float 0. & info [ "fault-rate" ] ~docv:"P" ~doc)
  in
  let fault_seed =
    let doc = "Seed of the fault-injection plan; the same seed replays the same failures." in
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N" ~doc)
  in
  let sweep =
    let doc =
      "Frequency sweep point in GHz (repeatable); at least two make the interpolation \
       fallback available for quarantined benchmarks."
    in
    Arg.(value & opt_all float [] & info [ "sweep" ] ~docv:"GHZ" ~doc)
  in
  let run paths format name deadline budget retries fail_fast seed fault_rate fault_seed sweep
      sets =
    setup_logs ();
    let repo = repo_of_paths paths in
    let* config = parse_config sets in
    let* c = Xpdl_repo.Repo.compose_by_name ~config repo name in
    let model = c.Xpdl_repo.Repo.model in
    let machine = Xpdl_simhw.Machine.create ~seed model in
    if fault_rate > 0. then
      Xpdl_simhw.Machine.inject_faults machine
        (Xpdl_simhw.Faults.create ~seed:fault_seed ~rate:fault_rate ());
    let policy =
      {
        Xpdl_microbench.Resilient.default_policy with
        deadline;
        budget;
        retries;
        fail_fast;
        frequencies = List.map (fun ghz -> ghz *. 1e9) sweep;
      }
    in
    let store = Xpdl_store.Store.of_model model in
    let health = Xpdl_microbench.Resilient.run_store ~policy ~machine store in
    (match format with
    | Json -> Fmt.pr "%s@." (Xpdl_microbench.Resilient.health_to_json health)
    | Text ->
        Fmt.pr "%a@." Xpdl_microbench.Resilient.pp_health health;
        List.iter
          (fun (path, quality) -> Fmt.pr "  %-12s %s@." quality path)
          (Xpdl_microbench.Resilient.quality_entries
             (Xpdl_store.Store.model store)));
    let quarantines =
      List.exists
        (fun (b : Xpdl_microbench.Resilient.bench) ->
          b.Xpdl_microbench.Resilient.b_quarantined)
        (health.Xpdl_microbench.Resilient.h_benches
        @ health.Xpdl_microbench.Resilient.h_links)
    in
    if fail_fast && (quarantines || health.Xpdl_microbench.Resilient.h_aborted) then 1
    else 0
  in
  Cmd.v
    (Cmd.info "bootstrap"
       ~doc:
         "Fault-tolerant deployment bootstrap: measure every '?' energy entry with \
          retry/backoff/quarantine, degrade gracefully (interpolated/inherited/unresolved \
          with quality provenance), and print the health report")
    Term.(
      const run $ models_arg $ format_arg $ system_arg $ deadline $ budget $ retries $ fail_fast
      $ seed $ fault_rate $ fault_seed $ sweep $ set_arg)

(* --- query --- *)

let query_cmd =
  let file =
    let doc = "Runtime-model file produced by $(b,process)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let expr =
    let doc =
      "Query: one of cores, cuda-devices, static-power, memory, software, degraded, \
       id:<ident>, path:<path>, prop:<name>, bw:<link>."
    in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let answer q expr =
    let starts_with prefix s =
      String.length s > String.length prefix && String.sub s 0 (String.length prefix) = prefix
    in
    let after prefix s = String.sub s (String.length prefix) (String.length s - String.length prefix) in
    match expr with
    | "cores" -> Fmt.pr "%d@." (Xpdl_query.Query.count_cores q)
    | "cuda-devices" -> Fmt.pr "%d@." (Xpdl_query.Query.count_cuda_devices q)
    | "static-power" -> Fmt.pr "%.2f W@." (Xpdl_query.Query.total_static_power q)
    | "memory" -> Fmt.pr "%.2f GiB@." (Xpdl_query.Query.total_memory_bytes q /. (1024. ** 3.))
    | "degraded" ->
        List.iter
          (fun (path, quality) -> Fmt.pr "%-12s %s@." quality path)
          (Xpdl_query.Query.degraded_entries q)
    | "software" ->
        List.iter
          (fun e ->
            Fmt.pr "%s@."
              (Option.value ~default:"?"
                 (match Xpdl_query.Query.type_of e with
                 | Some t -> Some t
                 | None -> Xpdl_query.Query.ident e)))
          (Xpdl_query.Query.installed_software q)
    | s when starts_with "id:" s -> (
        match Xpdl_query.Query.find_by_id q (after "id:" s) with
        | Some e ->
            Fmt.pr "%s kind=%s type=%s@." (Xpdl_query.Query.path e)
              (Schema.tag_of_kind (Xpdl_query.Query.kind e))
              (Option.value ~default:"-" (Xpdl_query.Query.type_of e))
        | None -> Fmt.pr "not found@.")
    | s when starts_with "path:" s -> (
        match Xpdl_query.Query.find_by_path q (after "path:" s) with
        | Some e -> Fmt.pr "%s@." (Option.value ~default:"?" (Xpdl_query.Query.ident e))
        | None -> Fmt.pr "not found@.")
    | s when starts_with "prop:" s ->
        Fmt.pr "%s@."
          (Option.value ~default:"(unset)" (Xpdl_query.Query.property q (after "prop:" s)))
    | s when starts_with "bw:" s -> (
        match Xpdl_query.Query.link_bandwidth q (after "bw:" s) with
        | Some b -> Fmt.pr "%.2f GiB/s@." (b /. (1024. ** 3.))
        | None -> Fmt.pr "unknown link@.")
    | other -> Fmt.epr "unknown query %S@." other
  in
  (* a corrupt file is a coded diagnostic and exit 1: load failures
     arrive as [Query_error] (code in the message), damage found by a
     lazy column read as [Ir.Corrupt] *)
  let run file expr =
    setup_logs ();
    match answer (Xpdl_query.Query.init file) expr with
    | () -> 0
    | exception Xpdl_query.Query.Query_error msg ->
        Fmt.epr "%s@." msg;
        1
    | exception Xpdl_toolchain.Ir.Corrupt d ->
        Fmt.epr "%s: [%s] %s@." file d.Diagnostic.code d.Diagnostic.message;
        1
  in
  Cmd.v (Cmd.info "query" ~doc:"Query a runtime-model file") Term.(const run $ file $ expr)

(* --- verify --- *)

let verify_cmd =
  let file =
    let doc = "Runtime-model file ($(b,.xrt)) produced by $(b,process)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file =
    setup_logs ();
    match Xpdl_toolchain.Ir.of_file_result file with
    | Error d ->
        Fmt.epr "%s: [%s] %s@." file d.Diagnostic.code d.Diagnostic.message;
        1
    | Ok ir -> (
        match Xpdl_toolchain.Ir.verify ir with
        | Error d ->
            Fmt.epr "%s: [%s] %s@." file d.Diagnostic.code d.Diagnostic.message;
            1
        | Ok () ->
            Fmt.pr "%s: ok (%d nodes, format v%d)@." file (Xpdl_toolchain.Ir.size ir)
              Xpdl_toolchain.Ir.format_version;
            0)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check a runtime-model file: structural validation (done on every load) plus the full \
          payload checksum that loads skip")
    Term.(const run $ file)

(* --- fuzz --- *)

let fuzz_cmd =
  let seed =
    let doc =
      "Generator seed.  The same seed replays the same inputs; CI passes its run id so every \
       build explores a different corpus while staying reproducible from the log."
    in
    Arg.(value & opt int Xpdl_gen.Differential.default_seed & info [ "seed" ] ~docv:"N" ~doc)
  in
  let count =
    let doc = "Generated cases per property." in
    Arg.(value & opt int 500 & info [ "count" ] ~docv:"K" ~doc)
  in
  let props =
    let doc =
      Fmt.str "Run only this property (repeatable).  Known: %s."
        (String.concat ", " Xpdl_gen.Differential.property_names)
    in
    Arg.(value & opt_all string [] & info [ "property" ] ~docv:"NAME" ~doc)
  in
  let progress =
    let doc = "Print a progress line per property." in
    Arg.(value & flag & info [ "progress" ] ~doc)
  in
  let run seed count props progress =
    setup_logs ();
    let unknown =
      List.filter (fun p -> not (List.mem p Xpdl_gen.Differential.property_names)) props
    in
    if unknown <> [] then begin
      Fmt.epr "unknown propert%s: %s@."
        (if List.length unknown = 1 then "y" else "ies")
        (String.concat ", " unknown);
      2
    end
    else begin
      let properties =
        match props with [] -> Xpdl_gen.Differential.property_names | ps -> ps
      in
      let last = ref "" in
      let on_case name case =
        if progress && (name <> !last || (case + 1) mod 100 = 0) then begin
          last := name;
          Fmt.epr "[%s] case %d/%d@." name (case + 1) count
        end
      in
      let report = Xpdl_gen.Differential.run ~seed ~count ~properties ~on_case () in
      Fmt.pr "%a" Xpdl_gen.Differential.pp_report report;
      if report.Xpdl_gen.Differential.r_failures = [] then 0 else 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential fuzzing: generated models against naive oracles (query fast paths, \
          print/parse round-trip, parser recovery, PSM routing, determinism)")
    Term.(const run $ seed $ count $ props $ progress)

(* --- dse --- *)

let dse_cmd =
  let template_arg =
    let doc = "Parameterized platform template (.xpdl file with ranged <param> axes)." in
    Arg.(required & opt (some file) None & info [ "template" ] ~docv:"FILE" ~doc)
  in
  let axis_arg =
    let doc =
      "Override/add a sweep axis, name=v1,v2,... (repeatable); values accept :unit suffixes \
       (freq=1.8:GHz,2.4:GHz).  Without --axis, axes come from the template's ranged params."
    in
    Arg.(value & opt_all string [] & info [ "a"; "axis" ] ~docv:"SPEC" ~doc)
  in
  let sample_arg =
    let doc = "Evaluate a seeded splitmix64 sample of $(docv) distinct points." in
    Arg.(value & opt (some int) None & info [ "sample" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Sweep seed: sampling stream and every per-point machine seed derive from it." in
    Arg.(value & opt int Xpdl_dse.Dse.default_config.Xpdl_dse.Dse.seed
         & info [ "seed" ] ~docv:"N" ~doc)
  in
  let rows_arg =
    let doc = "SpMV case-study matrix rows." in
    Arg.(value & opt int Xpdl_dse.Dse.default_workload.Xpdl_dse.Dse.wl_rows
         & info [ "rows" ] ~docv:"N" ~doc)
  in
  let density_arg =
    let doc = "SpMV nonzero density." in
    Arg.(value & opt float Xpdl_dse.Dse.default_workload.Xpdl_dse.Dse.wl_density
         & info [ "density" ] ~docv:"D" ~doc)
  in
  let iterations_arg =
    let doc = "Solver sweeps over the same matrix (GPU amortizes its transfer across them)." in
    Arg.(value & opt int Xpdl_dse.Dse.default_workload.Xpdl_dse.Dse.wl_iterations
         & info [ "iterations" ] ~docv:"N" ~doc)
  in
  let fault_rate_arg =
    let doc = "Inject meter faults into every point's bootstrap (0 disables injection)." in
    Arg.(value & opt float 0. & info [ "fault-rate" ] ~docv:"P" ~doc)
  in
  let fault_seed_arg =
    let doc = "Base seed of the per-point fault-injection plans." in
    Arg.(value & opt int 1 & info [ "fault-seed" ] ~docv:"N" ~doc)
  in
  (* Load the template: parse + elaborate only — instantiation happens
     per sweep point inside the engine. *)
  let load_template path : (Model.element, Diagnostic.t list) result =
    match Xpdl_xml.Parse.file_recover ~lenient:true path with
    | Error msg -> Error [ Diagnostic.error ~code:"XPDL303" "cannot load %s: %s" path msg ]
    | Ok (root, parse_errors) -> (
        let pdiags = List.map Diagnostic.of_parse_error parse_errors in
        match root with
        | None -> Error pdiags
        | Some x -> (
            let nodes =
              match x.Xpdl_xml.Dom.tag with
              | "xpdl" | "repository" -> Xpdl_xml.Dom.child_elements x
              | _ -> [ x ]
            in
            match nodes with
            | [] ->
                Error
                  (pdiags @ [ Diagnostic.error ~code:"XPDL303" "%s: no template element" path ])
            | node :: _ ->
                let e, ediags = Elaborate.of_xml node in
                let diags = pdiags @ ediags in
                if Diagnostic.all_ok diags then Ok e else Error diags))
  in
  let run format max_errors template axes sample jobs seed rows density iterations fault_rate
      fault_seed =
    setup_logs ();
    match load_template template with
    | Error diags -> emit_diags ~format ?max_errors diags
    | Ok tmpl -> (
        let axis_results = List.map Xpdl_dse.Dse.parse_axis_spec axes in
        let axis_errors =
          List.filter_map (function Error d -> Some d | Ok _ -> None) axis_results
        in
        if axis_errors <> [] then emit_diags ~format ?max_errors axis_errors
        else
          let axes =
            match List.filter_map Result.to_option axis_results with
            | [] -> None
            | l -> Some l
          in
          let config =
            {
              Xpdl_dse.Dse.default_config with
              jobs;
              seed;
              plan =
                (match sample with
                | Some n -> Xpdl_dse.Dse.Sample n
                | None -> Xpdl_dse.Dse.Exhaustive);
              workload = { wl_rows = rows; wl_density = density; wl_iterations = iterations };
              faults = (if fault_rate > 0. then Some (fault_seed, fault_rate) else None);
            }
          in
          let t0 = Unix.gettimeofday () in
          match Xpdl_dse.Dse.run ~config ?axes tmpl with
          | Error d -> emit_diags ~format ?max_errors [ d ]
          | Ok report ->
              let elapsed = Unix.gettimeofday () -. t0 in
              (match format with
              | Text ->
                  Fmt.pr "%a" Xpdl_dse.Dse.pp_report report;
                  Fmt.pr "elapsed: %.2f s@." elapsed
              | Json ->
                  (* canonical report plus a "timing" member consumers
                     strip before byte-comparing runs *)
                  let body = Xpdl_dse.Dse.report_to_json report in
                  let body = String.sub body 0 (String.length body - 1) in
                  Fmt.pr {|%s,"timing":{"elapsed_s":%.6f}}@.|} body elapsed);
              Xpdl_dse.Dse.exit_code report)
  in
  Cmd.v
    (Cmd.info "dse"
       ~doc:
         "Design-space exploration: sweep a parameterized platform template over its param \
          axes (full grid or seeded sample), evaluate every point through instantiate -> \
          bootstrap -> SpMV composition on simhw, and report the Pareto front over (energy, \
          time, static power) with per-axis sensitivities")
    Term.(
      const run $ format_arg $ max_errors_arg $ template_arg $ axis_arg $ sample_arg
      $ jobs_arg $ seed_arg $ rows_arg $ density_arg $ iterations_arg
      $ fault_rate_arg $ fault_seed_arg)

(* --- serve / loadgen --- *)

(* Server address options shared by serve and loadgen: a unix-domain
   socket path, or HOST:PORT for TCP. *)
let addr_args =
  let socket =
    let doc = "Unix-domain socket path (default $(b,xpdl-serve.sock) unless $(b,--tcp))." in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp =
    let doc = "TCP endpoint as HOST:PORT (port 0 picks an ephemeral port)." in
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)
  in
  let resolve socket tcp =
    match (socket, tcp) with
    | Some _, Some _ -> `Error (false, "--socket and --tcp are mutually exclusive")
    | Some path, None -> `Ok (Xpdl_serve.Server.Unix_socket path)
    | None, Some spec -> (
        match String.rindex_opt spec ':' with
        | Some i -> (
            let host = String.sub spec 0 i in
            let port = String.sub spec (i + 1) (String.length spec - i - 1) in
            match int_of_string_opt port with
            | Some p when p >= 0 -> `Ok (Xpdl_serve.Server.Tcp (host, p))
            | _ -> `Error (false, Fmt.str "invalid port in %S" spec))
        | None -> `Error (false, Fmt.str "--tcp expects HOST:PORT, got %S" spec))
    | None, None -> `Ok (Xpdl_serve.Server.Unix_socket "xpdl-serve.sock")
  in
  Term.(ret (const resolve $ socket $ tcp))

let serve_cmd =
  let deadline =
    let doc = "Stop serving after $(docv) seconds (safety net for CI smoke runs)." in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"S" ~doc)
  in
  let max_clients =
    let doc = "Maximum simultaneous connections." in
    Arg.(value & opt int 64 & info [ "max-clients" ] ~docv:"N" ~doc)
  in
  let wal =
    let doc =
      "Durable serving: journal every accepted edit to a write-ahead log in $(docv) and recover \
       checkpoint + journal tail from it on startup (crash-safe; see docs/SERVING.md)."
    in
    Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"DIR" ~doc)
  in
  let fsync =
    let doc =
      "WAL fsync policy: $(b,always) (no acknowledged edit can be lost), $(b,interval) or \
       $(b,interval:S) (bounded loss window), $(b,never)."
    in
    Arg.(value & opt string "interval" & info [ "fsync" ] ~docv:"POLICY" ~doc)
  in
  let checkpoint_every =
    let doc = "Roll a checkpoint and restart the journal every $(docv) edits." in
    Arg.(value & opt int 1024 & info [ "checkpoint-every" ] ~docv:"N" ~doc)
  in
  let run models system addr deadline max_clients wal fsync checkpoint_every =
    setup_logs ();
    let* c = Xpdl_repo.Repo.compose_by_name (repo_of_paths models) system in
    let durable_store =
      match wal with
      | None -> Ok None
      | Some dir -> (
          match Xpdl_store.Wal.policy_of_string fsync with
          | Error msg -> Error msg
          | Ok policy -> (
              match
                Xpdl_store.Store.recover ~policy ~checkpoint_every ~dir
                  c.Xpdl_repo.Repo.model
              with
              | Error d -> Error (Fmt.str "[%s] %s" d.Xpdl_core.Diagnostic.code d.message)
              | Ok (st, diags) ->
                  List.iter (fun d -> Fmt.pr "%a@." Xpdl_core.Diagnostic.pp d) diags;
                  Fmt.pr "recovered revision %d from %s@."
                    (Xpdl_store.Store.revision st) dir;
                  Ok (Some st)))
    in
    let* st = durable_store in
    let hub =
      match st with
      | Some st -> Xpdl_serve.Hub.of_store st
      | None -> Xpdl_serve.Hub.create c.Xpdl_repo.Repo.model
    in
    let srv = Xpdl_serve.Server.start ~max_clients ?deadline_s:deadline addr hub in
    (match Xpdl_serve.Server.sockaddr srv with
    | Unix.ADDR_UNIX path -> Fmt.pr "serving %s on unix socket %s@." system path
    | Unix.ADDR_INET (ip, port) ->
        Fmt.pr "serving %s on %s:%d@." system (Unix.string_of_inet_addr ip) port);
    (* SIGINT/SIGTERM end the loop like the deadline does, so the
       WAL is closed and the stats line printed *)
    let on_signal = Sys.Signal_handle (fun _ -> Xpdl_serve.Server.request_stop srv) in
    List.iter (fun s -> Sys.set_signal s on_signal) [ Sys.sigint; Sys.sigterm ];
    Xpdl_serve.Server.wait srv;
    Xpdl_serve.Server.stop srv;
    Option.iter Xpdl_store.Store.close_wal st;
    Fmt.pr "%s@." (Xpdl_serve.Hub.stats_json hub);
    0
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve a composed system to concurrent clients: queries, edits and subscriptions over a \
          length-prefixed binary protocol, with MVCC snapshot pinning and optional write-ahead \
          journaling for crash-safe durability (see docs/SERVING.md)")
    Term.(
      const run $ models_arg $ system_arg $ addr_args $ deadline $ max_clients $ wal $ fsync
      $ checkpoint_every)

let loadgen_cmd =
  let clients =
    let doc = "Concurrent client connections (one domain each)." in
    Arg.(value & opt int 4 & info [ "clients" ] ~docv:"N" ~doc)
  in
  let duration =
    let doc = "Run length in seconds." in
    Arg.(value & opt float 5.0 & info [ "duration" ] ~docv:"S" ~doc)
  in
  let rate =
    let doc =
      "Open-loop schedule: each client fires $(docv) requests/second and latency includes \
       queueing behind a slow server.  Without it the loop is closed (send on reply)."
    in
    Arg.(value & opt (some float) None & info [ "rate" ] ~docv:"R" ~doc)
  in
  let seed =
    let doc = "splitmix64 seed; identical configs replay identical request streams." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let edit_target =
    let doc =
      "Identifier (or scope path) of the element edited by the edit share of the mix; resolved \
       over the wire at startup.  Enables edits."
    in
    Arg.(value & opt (some string) None & info [ "edit-target" ] ~docv:"IDENT" ~doc)
  in
  let edit_key =
    let doc = "Attribute edited at $(b,--edit-target)." in
    Arg.(value & opt string "static_power" & info [ "edit-key" ] ~docv:"ATTR" ~doc)
  in
  let json =
    let doc = "Print the report as one JSON object." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let req_ids =
    let doc =
      "Stamp every edit with a client-assigned request id so the server's dedup window makes \
       retried edits idempotent (exactly-once accounting)."
    in
    Arg.(value & flag & info [ "req-ids" ] ~doc)
  in
  let retries =
    let doc =
      "Retry transport failures up to $(docv) attempts per request, reconnecting between \
       attempts with exponential backoff and deterministic jitter.  0 disables retries."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let retry_deadline =
    let doc = "Per-attempt response deadline in seconds (with $(b,--retries))." in
    Arg.(value & opt float 2.0 & info [ "retry-deadline" ] ~docv:"S" ~doc)
  in
  let run addr clients duration rate seed edit_target edit_key json req_ids retries retry_deadline
      =
    setup_logs ();
    let resolve_mix () =
      match edit_target with
      | None -> Xpdl_serve.Loadgen.default_mix
      | Some ident -> (
          (* ask the server for the element's index path *)
          let cl = Xpdl_serve.Client.connect addr in
          let resp =
            Xpdl_serve.Client.request cl
              (Xpdl_serve.Protocol.Query { rev = -1; q = "ipath:" ^ ident })
          in
          Xpdl_serve.Client.close cl;
          match resp with
          | Xpdl_serve.Protocol.Ok (Xpdl_serve.Protocol.Strs steps) ->
              let path = List.filter_map int_of_string_opt steps in
              {
                Xpdl_serve.Loadgen.default_mix with
                edits =
                  [|
                    {
                      Xpdl_serve.Loadgen.et_path = path;
                      et_key = edit_key;
                      et_values = [| "1"; "2"; "5"; "11" |];
                    };
                  |];
              }
          | Xpdl_serve.Protocol.Err { code; msg } ->
              Fmt.failwith "cannot resolve --edit-target %s: [%s] %s" ident code msg
          | r -> Fmt.failwith "unexpected answer resolving --edit-target: %a"
                   Xpdl_serve.Protocol.pp_response r)
    in
    let mode =
      match rate with None -> Xpdl_serve.Loadgen.Closed | Some r -> Xpdl_serve.Loadgen.Open r
    in
    let retry =
      if retries <= 0 then None
      else
        Some
          {
            Xpdl_serve.Client.default_retry with
            attempts = retries;
            deadline_s = Some retry_deadline;
            retry_seed = seed;
          }
    in
    match
      let mix = resolve_mix () in
      Xpdl_serve.Loadgen.run addr
        { clients; duration_s = duration; mode; mix; seed; req_ids; retry }
    with
    | report ->
        if json then Fmt.pr "%s@." (Xpdl_serve.Loadgen.report_to_json report)
        else Fmt.pr "%a@." Xpdl_serve.Loadgen.pp_report report;
        if Xpdl_serve.Loadgen.edits_diverged report then begin
          Fmt.epr "acknowledged/applied edit counts diverged: %d acknowledged, %d applied@."
            report.Xpdl_serve.Loadgen.acknowledged report.Xpdl_serve.Loadgen.applied;
          2
        end
        else if report.Xpdl_serve.Loadgen.errors = 0 then 0
        else 1
    | exception (Unix.Unix_error _ as e) ->
        Fmt.epr "cannot reach the server: %s@." (Printexc.to_string e);
        1
    | exception (Xpdl_serve.Client.Client_error d | Xpdl_serve.Frame.Closed d) ->
        Fmt.epr "%a@." Xpdl_core.Diagnostic.pp d;
        1
    | exception Failure msg ->
        Fmt.epr "%s@." msg;
        1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running model-query server with a weighted mix of getter, derived-attribute, \
          edit and pinned-snapshot operations; reports p50/p95/p99 latency and throughput")
    Term.(
      const run $ addr_args $ clients $ duration $ rate $ seed $ edit_target $ edit_key $ json
      $ req_ids $ retries $ retry_deadline)

(* --- chaosproxy --- *)

let chaosproxy_cmd =
  let listen =
    let doc = "Unix-domain socket path the proxy listens on (clients connect here)." in
    Arg.(required & opt (some string) None & info [ "listen" ] ~docv:"PATH" ~doc)
  in
  let seed =
    let doc = "splitmix64 seed of the fault plan; a seed replays the same fault schedule." in
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let deadline =
    let doc = "Stop proxying after $(docv) seconds (safety net for CI drills)." in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"S" ~doc)
  in
  let split_chance =
    let doc = "Probability a relay write is split to a few bytes (tears frames)." in
    Arg.(value & opt float 0.3 & info [ "split-chance" ] ~docv:"P" ~doc)
  in
  let max_split =
    let doc = "Maximum bytes relayed by a split write." in
    Arg.(value & opt int 7 & info [ "max-split" ] ~docv:"N" ~doc)
  in
  let stall_chance =
    let doc = "Probability a relay write stalls its direction." in
    Arg.(value & opt float 0.1 & info [ "stall-chance" ] ~docv:"P" ~doc)
  in
  let stall_s =
    let doc = "Stall duration in seconds." in
    Arg.(value & opt float 0.02 & info [ "stall" ] ~docv:"S" ~doc)
  in
  let reset_chance =
    let doc = "Probability a relay write resets the whole connection." in
    Arg.(value & opt float 0.01 & info [ "reset-chance" ] ~docv:"P" ~doc)
  in
  let run upstream listen seed deadline split_chance max_split stall_chance stall_s reset_chance =
    setup_logs ();
    let plan =
      { Xpdl_serve.Chaos.split_chance; max_split; stall_chance; stall_s; reset_chance }
    in
    let proxy =
      Xpdl_serve.Chaos.start ?deadline_s:deadline ~seed ~plan
        ~listen:(Xpdl_serve.Server.Unix_socket listen) ~upstream ()
    in
    Fmt.pr "chaos proxy on unix socket %s (seed %d)@." listen seed;
    let on_signal = Sys.Signal_handle (fun _ -> Xpdl_serve.Chaos.request_stop proxy) in
    List.iter (fun s -> Sys.set_signal s on_signal) [ Sys.sigint; Sys.sigterm ];
    Xpdl_serve.Chaos.wait proxy;
    Xpdl_serve.Chaos.stop proxy;
    Fmt.pr "%s@." (Xpdl_serve.Chaos.stats_json proxy);
    0
  in
  Cmd.v
    (Cmd.info "chaosproxy"
       ~doc:
         "Fault-injecting proxy between protocol clients and a model-query server: seeded write \
          splits, stalls and connection resets, for crash and resilience drills (the upstream \
          server is addressed with --socket/--tcp)")
    Term.(
      const run $ addr_args $ listen $ seed $ deadline $ split_chance $ max_split $ stall_chance
      $ stall_s $ reset_chance)

(* --- walcheck --- *)

let walcheck_cmd =
  let dir =
    let doc = "WAL directory to inspect." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR" ~doc)
  in
  let run dir =
    setup_logs ();
    match
      Xpdl_store.Store.recover ~read_only:true ~dir
        (Xpdl_core.Model.make Xpdl_core.Schema.System)
    with
    | Error d ->
        Fmt.epr "%a@." Xpdl_core.Diagnostic.pp d;
        1
    | Ok (st, diags) ->
        let truncated =
          List.exists (fun d -> d.Xpdl_core.Diagnostic.code = "XPDL901") diags
        in
        Fmt.pr
          "{\"revision\":%d,\"size\":%d,\"model_fnv\":\"%016x\",\"truncated\":%b,\"diagnostics\":[%a]}@."
          (Xpdl_store.Store.revision st)
          (Xpdl_store.Store.size st)
          (Xpdl_store.Wal.model_fingerprint (Xpdl_store.Store.model st))
          truncated
          Fmt.(
            list ~sep:comma (fun ppf d ->
                Fmt.pf ppf "\"[%s] %s\"" d.Xpdl_core.Diagnostic.code
                  (String.map (function '"' -> '\'' | c -> c) d.message)))
          diags;
        0
  in
  Cmd.v
    (Cmd.info "walcheck"
       ~doc:
         "Inspect a write-ahead-log directory offline: replay checkpoint + journal tail without \
          modifying anything and print the recovered revision and model fingerprint as JSON (the \
          crash drill's bit-identity probe)")
    Term.(const run $ dir)

(* --- stats --- *)

let stats_cmd =
  let run addr =
    setup_logs ();
    match
      let cl = Xpdl_serve.Client.connect addr in
      let resp = Xpdl_serve.Client.request ~timeout:5.0 cl Xpdl_serve.Protocol.Stats in
      Xpdl_serve.Client.close cl;
      resp
    with
    | Xpdl_serve.Protocol.Ok (Xpdl_serve.Protocol.Str json) ->
        Fmt.pr "%s@." json;
        0
    | r ->
        Fmt.epr "unexpected stats answer: %a@." Xpdl_serve.Protocol.pp_response r;
        1
    | exception (Unix.Unix_error _ as e) ->
        Fmt.epr "cannot reach the server: %s@." (Printexc.to_string e);
        1
    | exception Xpdl_serve.Client.Client_error d ->
        Fmt.epr "%a@." Xpdl_core.Diagnostic.pp d;
        1
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Fetch a running server's stats JSON (revision, edit accounting, model fingerprint) — \
          the live half of the crash drill's recovered-head comparison")
    Term.(const run $ addr_args)

(* --- emit-cpp --- *)

let emit_cpp_cmd =
  let run () =
    print_string (Xpdl_toolchain.Cpp_codegen.generate_header ());
    0
  in
  Cmd.v
    (Cmd.info "emit-cpp" ~doc:"Generate the C++ query-API header from the schema")
    Term.(const run $ const ())

(* --- emit-drivers --- *)

let emit_drivers_cmd =
  let dir =
    let doc = "Output directory for generated driver sources." in
    Arg.(value & opt string "drivers" & info [ "d"; "dir" ] ~docv:"DIR" ~doc)
  in
  let run paths name dir =
    setup_logs ();
    let repo = repo_of_paths paths in
    let* c = Xpdl_repo.Repo.compose_by_name repo name in
    let pm = Power.of_element c.Xpdl_repo.Repo.model in
    List.iter
      (fun suite ->
        let files = Xpdl_microbench.Driver.emit_suite ~dir suite in
        Fmt.pr "suite %s: %a@." suite.Power.su_id Fmt.(list ~sep:comma string) files)
      pm.Power.pm_suites;
    0
  in
  Cmd.v
    (Cmd.info "emit-drivers" ~doc:"Generate microbenchmark driver code for a system")
    Term.(const run $ models_arg $ system_arg $ dir)

(* --- emit-uml --- *)

let emit_uml_cmd =
  let target =
    let doc = "'metamodel' for the language class diagram, or a system name for an object diagram." in
    Arg.(value & pos 0 string "metamodel" & info [] ~docv:"TARGET" ~doc)
  in
  let depth =
    let doc = "Object-diagram depth cutoff." in
    Arg.(value & opt int 3 & info [ "depth" ] ~doc)
  in
  let run paths target depth =
    setup_logs ();
    if String.equal target "metamodel" then begin
      print_string (Xpdl_toolchain.Uml.metamodel_diagram ());
      0
    end
    else
      let repo = repo_of_paths paths in
      let* c = Xpdl_repo.Repo.compose_by_name repo target in
      print_string
        (Xpdl_toolchain.Uml.model_diagram ~max_depth:depth c.Xpdl_repo.Repo.model);
      0
  in
  Cmd.v
    (Cmd.info "emit-uml" ~doc:"Emit the PlantUML view (meta-model or a composed system)")
    Term.(const run $ models_arg $ target $ depth)

(* --- emit-xsd --- *)

let emit_xsd_cmd =
  let run () =
    print_string (Xpdl_toolchain.Xsd.generate ());
    0
  in
  Cmd.v
    (Cmd.info "emit-xsd" ~doc:"Emit the xpdl.xsd schema document generated from the core schema")
    Term.(const run $ const ())

(* --- control --- *)

let control_cmd =
  let run paths name =
    setup_logs ();
    let repo = repo_of_paths paths in
    let* c = Xpdl_repo.Repo.compose_by_name repo name in
    match Control.derive c.Xpdl_repo.Repo.model with
    | tree ->
        Fmt.pr "%a@." Control.pp_tree tree;
        (match Control.classify tree with
        | Some pat -> Fmt.pr "matches platform pattern: %s@." pat.Control.pat_name
        | None -> Fmt.pr "matches no canonical platform pattern@.");
        0
    | exception Control.Control_error msg ->
        Fmt.epr "%s@." msg;
        1
  in
  Cmd.v
    (Cmd.info "control"
       ~doc:"Derive the control relation (master/hybrid/worker) and match platform patterns")
    Term.(const run $ models_arg $ system_arg)

(* --- to-json --- *)

let to_json_cmd =
  let run paths name =
    setup_logs ();
    let repo = repo_of_paths paths in
    let* c = Xpdl_repo.Repo.compose_by_name repo name in
    print_string (Xpdl_toolchain.Json.to_string c.Xpdl_repo.Repo.model);
    0
  in
  Cmd.v
    (Cmd.info "to-json" ~doc:"Render a composed system as JSON (the HPP-DL style view)")
    Term.(const run $ models_arg $ system_arg)

(* --- to-pdl --- *)

let to_pdl_cmd =
  let run paths name =
    setup_logs ();
    let repo = repo_of_paths paths in
    let* c = Xpdl_repo.Repo.compose_by_name repo name in
    print_string (Xpdl_pdl.Pdl.to_string (Xpdl_pdl.Pdl.of_xpdl c.Xpdl_repo.Repo.model));
    0
  in
  Cmd.v
    (Cmd.info "to-pdl" ~doc:"Downgrade a composed system to a PEPPHER PDL document")
    Term.(const run $ models_arg $ system_arg)

let () =
  let info =
    Cmd.info "xpdltool" ~version:"1.0.0"
      ~doc:"The XPDL platform-description toolchain (ICPP-EMS 2015 reproduction)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd; validate_cmd; validate_all_cmd; repo_cmd; compose_cmd; analyze_cmd;
            process_cmd;
            bootstrap_cmd; query_cmd; dse_cmd; serve_cmd; loadgen_cmd; chaosproxy_cmd;
            walcheck_cmd; stats_cmd; verify_cmd; fuzz_cmd;
            emit_cpp_cmd; emit_uml_cmd; emit_xsd_cmd; emit_drivers_cmd; control_cmd;
            to_pdl_cmd; to_json_cmd;
          ]))
